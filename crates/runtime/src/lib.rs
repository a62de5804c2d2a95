//! # da-runtime — the concurrent live-execution substrate
//!
//! The paper evaluates daMulticast under a synchronous round simulator
//! (Sec. VII-A); this crate runs the *same protocol code* on real
//! threads with real message passing. Every process that implements
//! `da_core`'s [`ExecProtocol`] — `damulticast::DaProcess` and the three
//! baselines included, unchanged — runs as an actor on a worker pool
//! (this crate depends on no protocol crate):
//!
//! * **transport** — a lock-free data plane over a lane matrix
//!   ([`lane_matrix`]): one bounded SPSC ring (`crossbeam::queue`) per
//!   (producer worker, consumer worker) pair, so batch publication
//!   never takes a lock and never contends with any third worker.
//!   Sends are address-hashed to the owning worker, coalesced per
//!   destination worker into one batch (a pooled `Vec`) per tick, and
//!   never copied twice; drained buffers recycle back to the producer
//!   over per-pair return lanes (a [`BatchPool`]), so steady-state
//!   ticks allocate nothing on the data plane. Control messages ride
//!   `std::sync::mpsc` channels;
//! * **network faults** — the [`FaultyRouter`] applies the same
//!   substrate-neutral [`NetworkModel`](da_core::NetworkModel) the
//!   simulator uses (`da_core::network`, configured via the
//!   [`RunConfig::with_channel`] / [`RunConfig::with_partitions`]
//!   setters both substrates' configs share): Bernoulli loss and
//!   sampled latencies drawn from deterministic per-edge RNG streams on
//!   the one channel, with
//!   delayed envelopes held on the sending router's delay wheel until
//!   the flush before their due tick. Sends crossing an active
//!   [`PartitionSchedule`](da_core::PartitionSchedule) cut are dropped
//!   at send time (`rt.dropped_partitioned`) — a pure decision consuming
//!   zero randomness, so both substrates sever the same sends;
//! * **bounded-lag tick scheduler** — gossip rounds become *ticks*, but
//!   there is no global barrier: each worker advances its own clock,
//!   gated only by per-sender atomic publish watermarks
//!   ([`EdgeWatermarks`]) — it may execute tick `n` once every peer has
//!   *published* (flushed) the batches that could still be due at `n`.
//!   A message sent in tick `n` is still delivered exactly at tick
//!   `n + k` of its sampled latency `k ≥ 1`, preserving the simulator's
//!   virtual-time contract, while slow workers stop gating fast ones up
//!   to a drift window of the network's latency floor (as far as it
//!   proves safe, no further). A coordinator
//!   observes the reported tick frontier to keep `step_tick` /
//!   `run_until_quiescent` semantics exact — including never executing
//!   a tick past the quiescent one;
//! * **process failures** — each worker drives a `da_core::Stripe`,
//!   the tick body the simulator runs too, whose
//!   [`LifecycleController`] applies the same `da_core::failure` plan
//!   (configured via [`RunConfig::with_failures`]):
//!   stillborn processes never start, scripted fates and churn draws
//!   crash/recover processes at the start of their tick, messages owed
//!   to a crashed process are consumed as `rt.dropped_crashed`,
//!   per-observer transmissions drop as `rt.dropped_observed_failed`,
//!   and a recovered process re-enters through its `on_recover` hook
//!   (the protocol's bootstrap path). All liveness draws are keyed on
//!   `(pid, tick)`, so one seed yields the identical crash/recovery
//!   schedule on both substrates at any worker count;
//! * **per-worker metrics** — each worker counts into the registry of
//!   its own stripe (plain array increments, id-keyed on the transport
//!   hot path) and shares it with no other thread:
//!   [`Runtime::counters`] asks every worker for a copy through the
//!   control channel [`Runtime::with_process_mut`] uses, and folds the
//!   replies into the same [`Counters`] registry the simulator fills;
//!   [`Runtime::shutdown`] folds the final ones handed back at join;
//! * **flight recorder** — with [`RunConfig::with_trace`] enabled,
//!   every send, delivery, drop, and lifecycle transition is appended
//!   (unsynchronised) to the recorder of the worker's own stripe, which
//!   keeps it under the configured capacity, alongside delivery-latency
//!   / wheel-occupancy / watermark-lag / lane-depth histograms;
//!   [`Runtime::trace_log`] reads and folds them like the counters, and
//!   the merged [`TraceLog`] canonicalizes into the exact stream the
//!   simulator records for the same seed. Off by default: the hot-path
//!   cost of disabled tracing is one branch on a `None`;
//! * **graceful shutdown** — [`Runtime::shutdown`] stops the pool,
//!   joins every worker, and hands back the protocol instances (plus
//!   their final liveness) for inspection, exactly like
//!   `Engine::into_processes`.
//!
//! Delivery order *within* a tick is deterministic: a router ships each
//! (due tick, destination worker) bucket whole, in send order, and each
//! worker delivers a tick's batches in producer worker-id order — a
//! pure function of `(tick, from, to, occurrence)`, independent of
//! thread interleaving and worker count. The protocol's
//! guarantees (full audience coverage, zero parasite deliveries) hold
//! on both substrates; `tests/runtime_parity.rs` in the workspace root
//! asserts it against the simulator on the paper's topology.
//!
//! ## Quick start
//!
//! ```
//! use da_runtime::{Runtime, RuntimeConfig};
//! use damulticast::{ParamMap, StaticNetwork};
//!
//! # fn main() -> Result<(), damulticast::DaError> {
//! let net = StaticNetwork::linear(&[4, 16], ParamMap::default(), 7)?;
//! let leaf = net.groups()[1].members[0];
//! let config = RuntimeConfig::default().with_workers(2).with_seed(7);
//! let mut rt = Runtime::spawn(config, net.into_processes());
//!
//! let id = rt.with_process_mut(leaf, |p| p.publish("live!"));
//! rt.run_until_quiescent(64);
//!
//! let out = rt.shutdown();
//! let delivered = out.processes.iter().filter(|p| p.has_delivered(id)).count();
//! assert!(delivered >= 12, "gossip blankets the leaf group");
//! assert_eq!(out.counters.get("da.parasite"), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod runtime;
mod transport;
mod worker;

// The `da_core` names this crate's own public signatures mention;
// everything else is imported from `da_core` directly.
pub use da_core::{
    Counters, Envelope, ExecProtocol, FaultConfig, Histogram, LifecycleController,
    LifecycleTransitions, PoolConfig, ProcessId, ProcessStatus, RunConfig, TickReport, TraceConfig,
    TraceLog, WireSize,
};
// Unused by the pool; kept for the benchmark's `metrics.*` probes.
pub use metrics::{ShardOutOfRange, ShardedCounters};
pub use runtime::{Runtime, RuntimeConfig, Shutdown};
pub use transport::{
    lane_matrix, BatchPool, EdgeInbox, EdgeWatermarks, FaultyRouter, FlushReport, Hub, LaneClosed,
};
