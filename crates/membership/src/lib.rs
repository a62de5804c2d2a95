//! # da-membership — gossip-based membership substrate
//!
//! daMulticast sits on top of "the underlying gossip-based membership
//! algorithm" of Kermarrec, Massoulié and Ganesh (*Probabilistic Reliable
//! Dissemination in Large-Scale Systems*, IEEE TPDS 2003 — reference \[10\]
//! of the paper). Each process keeps a **partial view** of its group of
//! size `(b + 1)·ln(S)` and gossips membership digests to keep it fresh.
//!
//! This crate holds the view, the two ways of filling it, the layout of
//! one baseline, and the interest-oblivious [`Overlay`] — the paper's
//! weakly-consistent `neighborhood(p)` the bootstrap floods through:
//!
//! * [`PartialView`] — the bounded, self-excluding, duplicate-free view
//!   every process owns as its topic table.
//! * [`static_init`] — the paper's simulation mode (Sec. VII-A: "the
//!   membership tables of a process are determined statically ... and do
//!   not change during the entire simulation"): views drawn once.
//! * [`flat`] — the dynamic mode's gossip on a view: joins, periodic
//!   digests and staleness eviction, used by the full protocol stack in
//!   examples and integration tests.
//! * [`hierarchical`] — the interest-oblivious two-level process layout
//!   used by the paper's baseline (c), "hierarchical gossip-based
//!   broadcast".
//!
//! ```
//! use da_membership::{kmg_view_size, FanoutRule};
//!
//! // The paper's setting: b = 3, S_T2 = 1000 → views of (3+1)·ln(1000) ≈ 28.
//! assert_eq!(kmg_view_size(3.0, 1000), 28);
//! // Gossip fanout of the paper's simulator: log10(S) + c.
//! let rule = FanoutRule::Log10PlusC { c: 5.0 };
//! assert_eq!(rule.fanout(1000), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fanout;
pub mod flat;
pub mod hierarchical;
mod message;
mod overlay;
pub mod static_init;
mod view;

pub use error::MembershipError;
pub use fanout::{kmg_view_size, FanoutRule};
pub use message::MembershipMsg;
pub use overlay::Overlay;
pub use view::PartialView;
