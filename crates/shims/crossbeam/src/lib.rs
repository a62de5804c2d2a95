//! Offline shim for `crossbeam`: the [`queue`] module alone, a bounded
//! lock-free SPSC ring carrying the live runtime's data plane (the
//! per-(producer, consumer) batch lanes). Scoped threads and channels
//! come from `std` (`std::thread::scope`, `std::sync::mpsc`).
//!
//! ## Divergences from crates.io
//!
//! * **`queue` is SPSC, not MPMC.** Real `crossbeam::queue` ships the
//!   MPMC `ArrayQueue`/`SegQueue`; this shim ships a bounded Lamport
//!   SPSC ring with split `!Clone` handles, cache-line-padded
//!   head/tail, and built-in disconnect detection — the only shape the
//!   workspace's lane matrix needs, and strictly cheaper (no CAS loops,
//!   one `Release` store per push/pop). See the [`queue`] module docs
//!   for the full divergence list and the soundness argument for its
//!   unsafe interior (the one `#[allow(unsafe_code)]` island in an
//!   otherwise `#![deny(unsafe_code)]` crate).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
