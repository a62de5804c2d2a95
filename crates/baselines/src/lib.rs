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
//! The three differ only in the tables their builders draw, so one
//! [`GossipProcess`] runs them all ([`gossip`]): it gossips an event into
//! every [`GossipTable`] scoped to the event's group. It implements
//! [`da_core::ExecProtocol`] — so, like daMulticast itself, every baseline
//! runs on the simulator and on the live runtime — reuses
//! [`damulticast::Event`], and counts each algorithm's traffic under its
//! [`da_core::Family`], so the harness can put the four algorithms in
//! one table (the paper's Sec. VI-E.1–3).
//!
//! ```
//! use da_baselines::{build_broadcast_network, build_multicast_network, InterestMap};
//! use da_membership::FanoutRule;
//! use da_core::{Family::{Broadcast, Multicast}, Kind::Parasite, ProcessId};
//! use da_simnet::{Engine, SimConfig};
//!
//! # fn main() -> Result<(), damulticast::DaError> {
//! let interests = InterestMap::linear(&[2, 3, 10]);
//! let procs = build_broadcast_network(&interests, 3.0, FanoutRule::default(), 7)?;
//! assert!(procs.iter().all(|p| p.tables().len() == 1), "one flat table");
//! let mut engine = Engine::new(SimConfig::default().with_seed(7), procs);
//! engine.process_mut(ProcessId(0)).publish("to everyone");
//! engine.run_until_quiescent(50);
//! assert!(engine.tally().total(Broadcast, Parasite) > 0, "broadcast pays in parasites");
//!
//! // The same process, drawn one table per joined topic group.
//! let procs = build_multicast_network(&interests, 3.0, FanoutRule::default(), 7)?;
//! assert_eq!(procs[0].tables().len(), 3, "a root subscriber joins every group");
//! let mut engine = Engine::new(SimConfig::default().with_seed(7), procs);
//! engine.process_mut(ProcessId(0)).publish("to the root group");
//! engine.run_until_quiescent(50);
//! assert_eq!(engine.tally().total(Multicast, Parasite), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod common;
pub mod gossip;
pub mod hierarchical;
pub mod multicast;

pub use broadcast::build_broadcast_network;
pub use common::InterestMap;
pub use gossip::{GossipMsg, GossipProcess, GossipTable};
pub use hierarchical::build_hierarchical_network;
pub use multicast::build_multicast_network;
