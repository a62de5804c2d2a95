//! # damulticast-suite
//!
//! Facade crate for the daMulticast reproduction workspace. It re-exports
//! every member crate so that examples and integration tests can address the
//! whole system through a single dependency.
//!
//! The interesting entry points are:
//!
//! * [`damulticast`] — the paper's contribution (the daMulticast protocol).
//! * [`da_core`] — the contract protocols and substrates share
//!   (`Exec`/`ExecProtocol`, wire sizes, metrics, the fault model).
//! * [`da_topics`] — the topic-hierarchy substrate.
//! * [`da_simnet`] — the deterministic discrete-event simulation kernel.
//! * [`da_runtime`] — the concurrent live-execution substrate (the same
//!   protocol code on a worker-pool actor runtime).
//! * [`da_membership`] — the gossip-based membership substrate.
//! * [`da_baselines`] — the three baseline dissemination algorithms.
//! * [`da_analysis`] — closed-form analysis from Section VI of the paper.
//! * [`da_harness`] — experiment harness regenerating every paper figure.
//!
//! ```
//! use damulticast_suite::da_analysis::reliability::atomic_infection_probability;
//! let r = atomic_infection_probability(5.0);
//! assert!(r > 0.99 && r < 1.0);
//! ```

pub use da_analysis;
pub use da_baselines;
pub use da_core;
pub use da_harness;
pub use da_membership;
pub use da_runtime;
pub use da_simnet;
pub use da_topics;
pub use damulticast;

/// Convenience prelude: the types most programs need, one `use` away.
///
/// ```
/// use damulticast_suite::prelude::*;
///
/// # fn main() -> Result<(), DaError> {
/// let net = Network::linear(&[5, 25], TopicParams::default(), 1)?;
/// let mut engine = Engine::new(SimConfig::default(), net.into_processes());
/// engine.run_until_quiescent(16);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use da_core::{
        ChannelConfig, Exec, ExecProtocol, FailureModel, FaultConfig, Histogram, NetworkModel,
        Partition, PartitionSchedule, ProcessId, TraceConfig, TraceEvent, TraceLog, TraceMode,
        TraceVerdict,
    };
    pub use da_membership::FanoutRule;
    pub use da_runtime::{Runtime, RuntimeConfig};
    pub use da_simnet::{Engine, SimConfig};
    pub use da_topics::{TopicHierarchy, TopicId};
    pub use damulticast::{DaError, DaProcess, Event, EventId, Network, TopicParams};
}
