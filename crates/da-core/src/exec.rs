//! The execution-context abstraction: protocol logic written once, run
//! on any substrate.
//!
//! The paper's evaluation runs daMulticast under a synchronous round
//! simulator; a production deployment runs it on real threads with real
//! message passing. Both substrates offer the same five capabilities to
//! the protocol — identity, virtual time, best-effort send, a
//! deterministic per-process RNG, and typed metrics — captured here as
//! the [`Exec`] trait. Protocol state machines implement [`ExecProtocol`]
//! against it and are thereby portable:
//!
//! * `da_simnet::Engine` drives any [`ExecProtocol`] under the
//!   deterministic simulator;
//! * `da_runtime::Runtime` drives it over an in-memory threaded
//!   transport, so the *same* tables, bootstrap, maintenance, and
//!   dissemination code serves live traffic.
//!
//! Both do so through [`crate::stripe`], which holds the one [`Exec`]
//! implementation the substrates share; they differ in where it sends
//! ([`crate::stripe::Outbound`]).
//!
//! The trait is deliberately minimal: anything substrate-specific
//! (channel loss models, failure plans, thread placement) stays out of
//! the protocol's sight, exactly as the paper's Sec. III system model
//! prescribes (processes see only send/receive over unreliable channels).

use crate::metrics::{Family, Kind};
use crate::process::ProcessId;
use rand::rngs::SmallRng;
use std::hash::Hasher;

/// One process' view of its execution substrate during a protocol
/// callback.
///
/// `round` is virtual time: gossip rounds under the simulator, scheduler
/// ticks under the live runtime. Messages sent here are best-effort — the
/// substrate may drop, delay, or reorder them, and the protocol must not
/// assume otherwise.
pub trait Exec {
    /// The message type travelling between processes.
    type Msg;

    /// The process this callback runs at.
    fn me(&self) -> ProcessId;

    /// Current virtual time (simulator round / runtime tick).
    fn round(&self) -> u64;

    /// Queues a best-effort message to `to`.
    fn send(&mut self, to: ProcessId, msg: Self::Msg);

    /// The deterministic RNG stream of this process.
    fn rng(&mut self) -> &mut SmallRng;

    /// Increments the metrics counter `label` by one.
    fn bump(&mut self, label: &str);

    /// Counts one `kind` of `family` for `group` (a `TopicId` index for
    /// daMulticast, 0 for the rest) — what a protocol's per-message hooks
    /// call. The substrates count into their [`crate::Tally`]; by default
    /// the count goes nowhere, for contexts that keep no tally.
    fn count(&mut self, family: Family, kind: Kind, group: usize) {
        let _ = (family, kind, group);
    }

    /// Adds `delta` to the metrics counter `label`.
    fn add(&mut self, label: &str, delta: u64);
}

/// A substrate-portable protocol state machine.
///
/// The hook contract: `on_start` once before virtual time 0,
/// `on_message` per delivered message, `on_round` once per round/tick
/// while the process is alive. Every hook is generic over the execution
/// context, so one implementation serves both the simulator and the live
/// runtime.
pub trait ExecProtocol {
    /// The protocol's message type.
    type Msg;

    /// Called once before round/tick 0. Default: no-op.
    fn on_start<X: Exec<Msg = Self::Msg>>(&mut self, ctx: &mut X) {
        let _ = ctx;
    }

    /// Called when a message addressed to this process is delivered.
    fn on_message<X: Exec<Msg = Self::Msg>>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut X,
    );

    /// Called once per round/tick, after the round's deliveries. Default:
    /// no-op.
    fn on_round<X: Exec<Msg = Self::Msg>>(&mut self, round: u64, ctx: &mut X) {
        let _ = (round, ctx);
    }

    /// Called when the substrate's failure plan recovers this process
    /// (it was crashed and comes back), at the start of the recovery
    /// round/tick and before any delivery. The protocol's re-entry
    /// path: `damulticast::DaProcess` restarts its super-contact
    /// bootstrap here, since its tables may have gone stale while it was
    /// down.
    /// Default: no-op.
    fn on_recover<X: Exec<Msg = Self::Msg>>(&mut self, ctx: &mut X) {
        let _ = ctx;
    }
}

/// Deterministic structural hashing for model-checker state digests.
///
/// Unlike `std::hash::Hash`, implementors must feed the hasher a
/// *canonical* byte stream: iteration-order-sensitive containers
/// (e.g. `HashSet`) must be folded order-independently (XOR of
/// per-element hashes) or sorted first, so that behaviorally equal
/// states always produce equal digests.
pub trait McHash {
    /// Feeds this value's canonical representation into `state`.
    fn mc_hash(&self, state: &mut dyn Hasher);
}
