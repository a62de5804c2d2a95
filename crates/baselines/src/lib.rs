//! # da-baselines — the paper's three comparison algorithms
//!
//! Sec. VI-E of *Data-Aware Multicast* compares daMulticast against three
//! "a priori relevant alternative approaches", all sharing the same
//! underlying membership machinery for fairness:
//!
//! * **(a) gossip-based broadcast** ([`broadcast`]) — one flat group over
//!   the entire population; cheap tables, but every process receives and
//!   relays every event (parasites).
//! * **(b) gossip-based multicast** ([`multicast`]) — one group per topic,
//!   subscribers join their topic's group plus every subtopic's group; no
//!   parasites, but per-process memory grows with the chain depth and
//!   subscribers must track subtopic creation.
//! * **(c) hierarchical gossip-based broadcast** ([`hierarchical`]) — the
//!   interest-oblivious two-level layout of \[10\]; bounded memory, but
//!   parasites return.
//!
//! All three implement [`da_core::ExecProtocol`] — so, like daMulticast
//! itself, they run on the simulator and on the live runtime — reuse
//! [`damulticast::Event`], and count their traffic under `bc.*`, `mc.*`
//! and `hc.*` metric labels, so the harness can put the four algorithms in
//! one table (the paper's Sec. VI-E.1–3).
//!
//! ```
//! use da_baselines::common::InterestMap;
//! use da_baselines::broadcast::build_broadcast_network;
//! use da_membership::FanoutRule;
//! use da_core::ProcessId;
//! use da_simnet::{Engine, SimConfig};
//!
//! # fn main() -> Result<(), damulticast::DaError> {
//! let interests = InterestMap::linear(&[2, 3, 10]);
//! let procs = build_broadcast_network(&interests, 3.0, FanoutRule::default(), 7)?;
//! let mut engine = Engine::new(SimConfig::default().with_seed(7), procs);
//! engine.process_mut(ProcessId(0)).publish("to everyone");
//! engine.run_until_quiescent(50);
//! assert!(engine.counters().get("bc.parasite") > 0, "broadcast pays in parasites");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod common;
pub mod hierarchical;
pub mod multicast;

pub use broadcast::{build_broadcast_network, BcMsg, BroadcastProcess};
pub use common::{DeliveryLog, InterestMap};
pub use hierarchical::{build_hierarchical_network, HcMsg, HierarchicalProcess};
pub use multicast::{build_multicast_network, McMsg, MulticastProcess};
