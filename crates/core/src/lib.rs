//! # damulticast — Data-Aware Multicast
//!
//! A Rust reproduction of **"Data-Aware Multicast"** (S. Baehni,
//! P. Th. Eugster, R. Guerraoui — EPFL, DSN 2004): a completely
//! decentralized multicast algorithm for topic-based publish/subscribe
//! where topics form a hierarchy. The algorithm is *data-aware*: it uses
//! the inclusion relations between topics to group processes by interest,
//! gossip events inside each group, and forward events bottom-up from a
//! topic's group to its supertopic's group.
//!
//! The properties the paper claims — and this crate tests — are:
//!
//! 1. per-process memory of `ln(S_Ti) + c_Ti + z_Ti` table entries,
//!    independent of the number of super-/subtopics;
//! 2. an application-tunable trade-off between inter-group reliability
//!    and message cost via the `g`, `a`, `z` parameters;
//! 3. message complexity `O(S_Tmax · ln S_Tmax)`;
//! 4. **zero parasite messages** — a process only ever receives events of
//!    topics it is interested in;
//! 5. no central server or broker.
//!
//! ## Quick start
//!
//! Build the paper's 3-level topology (`S_T0 = 10`, `S_T1 = 100`,
//! `S_T2 = 1000`), publish in the leaf group, and watch the event climb:
//!
//! ```
//! use damulticast::{ParamMap, StaticNetwork};
//! use da_core::ProcessId;
//! use da_simnet::{Engine, SimConfig};
//!
//! # fn main() -> Result<(), damulticast::DaError> {
//! let net = StaticNetwork::linear(&[10, 100, 1000], ParamMap::default(), 42)?;
//! let leaf = net.groups()[2].members[0];
//! let mut engine = Engine::new(SimConfig::default().with_seed(42), net.into_processes());
//! let id = engine.process_mut(leaf).publish("goal!");
//! engine.run_until_quiescent(64);
//!
//! // All 1000 leaf subscribers deliver; no process delivers twice; no
//! // process receives an event it did not subscribe to.
//! let delivered = engine
//!     .processes()
//!     .filter(|(_, p)| p.has_delivered(id))
//!     .count();
//! assert!(delivered > 1000);
//! assert_eq!(engine.counters().get("da.parasite"), 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Fig. 4 `FIND_SUPER_CONTACT` | [`BootstrapTask`] |
//! | Fig. 5 subscribe/receive | [`DaProcess`] (`on_message`) |
//! | Fig. 6 `KEEP_TABLE_UPDATED` | [`MaintenanceTask`] |
//! | Fig. 7 `DISSEMINATE` | [`plan_dissemination`] |
//! | Topic/supertopic tables (Sec. V-A.1) | [`SuperTable`] + `da_membership` |
//! | Per-topic knobs `b,c,g,a,z,τ` (Sec. V-B) | [`TopicParams`] |
//! | A group's constants, shared by its members | [`Group`] |
//! | Sec. VIII multiple inheritance | [`DaProcess::super_tables`] |
//!
//! ## Substrates
//!
//! The protocol is written once against `da_core`'s [`Exec`]
//! execution-context trait ([`ExecProtocol`]) and runs unchanged on two
//! substrates: the deterministic round simulator (`da-simnet`, used for
//! the paper's figures) and the multi-threaded live runtime
//! (`da-runtime`, used to serve real traffic). This crate depends on
//! neither — only its tests do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bootstrap;
mod dissemination;
mod error;
mod event;
mod group;
mod maintenance;
mod message;
mod metro;
mod network;
mod params;
mod protocol;
mod tables;

pub use bootstrap::{BootstrapAction, BootstrapTask};
// The contract every protocol type here implements.
pub use da_core::{Exec, ExecProtocol};
pub use dissemination::{plan_dissemination, DisseminationPlan};
pub use error::DaError;
pub use event::{Event, EventId, EventSet};
pub use group::Group;
pub use maintenance::{MaintenanceAction, MaintenanceTask};
pub use message::{ControlMsg, DaMsg};
pub use metro::{metro_population, MetroMsg, MetroProcess, MAX_HEADLINES};
pub use network::{DynamicNetwork, GroupSpec, StaticNetwork};
pub use params::{ParamMap, TopicParams};
pub use protocol::{DaProcess, Mutation};
pub use tables::{SuperEntry, SuperTable};
