//! # da-core — substrate-neutral foundations
//!
//! Everything a protocol and a substrate have to agree on, and nothing
//! of either: the [`exec`] contract ([`Exec`] — what a substrate offers a
//! process; [`ExecProtocol`] — what a process offers a substrate), the
//! [`wire`] size accounting and [`metrics`] registry both sides report
//! into, the unreliable-channel fault model (Sec. III-A of the
//! paper) and the scripted partitions and drops on top of it
//! ([`network::NetworkModel`]), the process failure models (Sec. VII),
//! the process identity vocabulary, the deterministic seed-derivation
//! scheme every RNG stream hangs off, the one [`run::RunConfig`] both
//! substrates take (seed, [`fault::FaultConfig`], trace, pool knobs), and
//! the [`wheel`] both substrates park in-flight envelopes in, the
//! [`stripe`] tick body both run, and the [`testkit`] fixture their tests
//! share.
//!
//! Both execution substrates consume this crate, and run the same tick
//! body from it — [`stripe::Stripe`]: the [`failure::FailurePlan`]'s
//! transitions applied by a [`lifecycle::LifecycleController`], the
//! delivery verdicts, the round hooks, the send ledger and the one
//! [`Exec`] context. They differ in where a send goes
//! ([`stripe::Outbound`]):
//!
//! * `da_simnet::Engine` samples loss and latency for every send
//!   through [`channel::ChannelConfig::sample_fate`] on its own engine
//!   RNG stream — single-threaded, globally ordered draws — straight
//!   into its wheel, over one stripe holding the whole population;
//! * `da_runtime`'s `FaultyRouter` samples the *same* channel model per
//!   send, but on [`channel::EdgeRngs`] — a stateless RNG per send,
//!   keyed by `(edge, tick, occurrence)` — for one stripe per worker.
//!   Plan fates are drawn from stateless `(block, round)` and
//!   `(pid, round)` hashes
//!   ([`failure::FailurePlan::churn_flips`]), so neither draws nor
//!   fates depend on how processes are striped across worker threads.
//!
//! Protocol crates (`da_membership`, `damulticast`, `da_baselines`)
//! depend on this crate only — never on a substrate — and the substrates
//! never on a protocol crate; they meet in the harness and the tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod exec;
pub mod failure;
pub mod fault;
pub mod lifecycle;
pub mod metrics;
pub mod network;
pub mod process;
pub mod run;
pub mod seed;
pub mod store;
pub mod stripe;
pub mod testkit;
pub mod trace;
pub mod wheel;
pub mod wire;

pub use channel::{ChannelConfig, ChannelFate, EdgeRngs, Latency};
pub use exec::{Exec, ExecProtocol, McHash};
pub use failure::{ChurnRates, FailureModel, FailurePlan, Fate};
pub use fault::FaultConfig;
pub use lifecycle::{LifecycleController, LifecycleTransitions};
pub use metrics::{
    CounterId, Counters, FxHasher, Histogram, KeyBuildHasher, KeyHasher, LabelId, TraceLog,
};
pub use network::{
    DropSchedule, NetFate, NetworkModel, Occurrences, Partition, PartitionSchedule, ScriptedDrop,
};
pub use process::{ProcessId, ProcessIndexError, ProcessStatus};
pub use run::{PoolConfig, RunConfig};
pub use seed::{derive_seed, keep_random, rng_for_process, rng_from_seed};
pub use store::ProcessStore;
pub use stripe::{HotIds, Ledger, Outbound, Stripe, StripeTrace, TickReport, TickTally};
pub use trace::{
    canonicalize, first_divergence, TraceConfig, TraceDivergence, TraceEvent, TraceMode,
    TraceRecorder, TraceVerdict,
};
pub use wheel::{DelayWheel, Envelope};
pub use wire::WireSize;
