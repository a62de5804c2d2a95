//! # da-simnet — deterministic simulation kernel
//!
//! The daMulticast paper evaluates its protocol with a simulator of
//! *synchronous gossip rounds* over unreliable best-effort channels
//! (Sec. VII-A: "Our simulator written in C# simulates synchronous gossip
//! rounds"). This crate is our Rust substitute: a deterministic,
//! seed-reproducible round-driven discrete-event kernel with
//!
//! * virtual time measured in gossip rounds,
//! * unreliable channels (per-send Bernoulli loss, configurable latency in
//!   rounds — the substrate-neutral model of `da_core::channel`, shared
//!   with the live runtime),
//! * process crash/recovery plus the paper's two failure models —
//!   *stillborn* (Fig. 8–10: state drawn once at simulation start) and
//!   *per-observer* (Fig. 11: a process "can appear to be failed for a
//!   process while appearing alive for another one"),
//! * per-process RNG streams derived from a master seed, and
//! * a metrics registry counting messages per protocol-defined label.
//!
//! Protocols implement `da_core`'s [`ExecProtocol`] — the one contract
//! both substrates drive — and run here under an [`Engine`]: one
//! `da_core::Stripe` holding the whole population, whose tick body (the
//! same one a live worker runs) hands every hook its [`Exec`] context,
//! and whose sends the engine routes into its delay wheel:
//!
//! ```
//! use da_simnet::{Engine, Exec, ExecProtocol, ProcessId, SimConfig, WireSize};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! struct Node { got: u32 }
//! impl ExecProtocol for Node {
//!     type Msg = Ping;
//!     fn on_round<X: Exec<Msg = Ping>>(&mut self, round: u64, ctx: &mut X) {
//!         if round == 0 && ctx.me() == ProcessId(0) {
//!             ctx.send(ProcessId(1), Ping(7));
//!         }
//!     }
//!     fn on_message<X: Exec<Msg = Ping>>(&mut self, _from: ProcessId, msg: Ping, _ctx: &mut X) {
//!         self.got = msg.0;
//!     }
//! }
//!
//! let mut engine = Engine::new(
//!     SimConfig::default().with_seed(42),
//!     vec![Node { got: 0 }, Node { got: 0 }],
//! );
//! engine.run_rounds(3);
//! assert_eq!(engine.process(ProcessId(1)).got, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod mc;
mod strategy;

// The `da_core` names this crate's own public signatures and trait
// impls mention; everything else is imported from `da_core` directly.
pub use da_core::{
    ChannelConfig, Counters, Exec, ExecProtocol, FailureModel, Fate, FaultConfig, McHash, NetFate,
    NetworkModel, PartitionSchedule, ProcessId, ProcessStatus, RunConfig, ScriptedDrop, Tally,
    TickReport, TraceConfig, TraceEvent, TraceLog, WireSize,
};
pub use engine::{Engine, SimConfig};
pub use strategy::{DueMessage, RngStrategy, Strategy};
