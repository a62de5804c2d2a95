//! The one run configuration both substrates take.
//!
//! A run is configured by a master seed, a [`FaultConfig`] and a
//! [`TraceConfig`]; the worker pool adds its own two knobs in
//! [`PoolConfig`]. `da_simnet::SimConfig` is [`RunConfig`] and
//! `da_runtime::RuntimeConfig` is `RunConfig<PoolConfig>`, so every
//! setter below exists once and reads the same on either substrate.

use crate::channel::ChannelConfig;
use crate::failure::FailureModel;
use crate::fault::FaultConfig;
use crate::network::PartitionSchedule;
use crate::trace::TraceConfig;

/// Everything one run is configured by: the master seed, the fault
/// surface, the flight recorder, and — on the worker pool — the pool's
/// own knobs (`Pool = ()` on the simulator, [`PoolConfig`] on the pool).
///
/// The default is seed 0, no faults, tracing off and, on the pool, one
/// worker per CPU:
///
/// ```
/// use da_core::channel::ChannelConfig;
/// use da_core::run::{PoolConfig, RunConfig};
///
/// let lossy = ChannelConfig::paper_default(); // p_succ = 0.85
/// let config = RunConfig::<PoolConfig>::default()
///     .with_workers(2)
///     .with_seed(42)
///     .with_channel(lossy);
/// assert!((config.faults.network.channel.success_probability - 0.85).abs() < 1e-12);
/// assert_eq!(config.pool.workers, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunConfig<Pool = ()> {
    /// Master seed from which every RNG stream is derived — the same
    /// derivation on both substrates, so a process keeps its stream
    /// across them. Also roots the per-edge channel fault streams.
    pub seed: u64,
    /// The fault surface: network model (channel, partitions, scripted
    /// drops) and process failure model.
    pub faults: FaultConfig,
    /// Flight-recorder configuration (default: off — no recorder is
    /// held and every hot-path trace hook is one branch on a `None`).
    pub trace: TraceConfig,
    /// What only the substrate running the run has a knob for.
    pub pool: Pool,
}

/// The worker pool's own knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Worker threads in the pool. `0` (the default) means one per
    /// available CPU, capped by the population.
    pub workers: usize,
    /// Watchdog: how long the coordinator waits for a worker to ack a
    /// tick or answer a read or an apply before it panics, rather than
    /// hanging.
    pub tick_timeout_ms: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 0,
            tick_timeout_ms: 60_000,
        }
    }
}

impl<Pool> RunConfig<Pool> {
    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the whole fault surface.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the network model's channel, keeping its partition
    /// schedule and scripted drops.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.faults.network.channel = channel;
        self
    }

    /// Installs a partition schedule (scripted split-brain windows) on
    /// the network model.
    #[must_use]
    pub fn with_partitions(mut self, partitions: PartitionSchedule) -> Self {
        self.faults.network.partitions = partitions;
        self
    }

    /// Replaces the process failure model — stillborn fractions,
    /// per-observer sampling, scripted fates, or continuous churn. The
    /// plan is materialised once at spawn; every liveness draw is keyed
    /// on `(pid, tick)` rather than a shared stream, so one seed yields
    /// the same crash/recovery schedule on the simulator and on a pool
    /// of any width. (Per-observer draws are per transmission by
    /// definition: statistically the paper's Fig. 11 model on both, with
    /// only the global draw order differing.)
    ///
    /// ```
    /// use da_core::failure::FailureModel;
    /// use da_core::run::RunConfig;
    ///
    /// let config = RunConfig::<()>::default().with_seed(7).with_failures(
    ///     FailureModel::Churn {
    ///         crash_probability: 0.01,
    ///         recover_probability: 0.2,
    ///     },
    /// );
    /// assert!(matches!(config.faults.failure, FailureModel::Churn { .. }));
    /// assert_eq!(RunConfig::<()>::default().faults.failure, FailureModel::None);
    /// ```
    #[must_use]
    pub fn with_failures(mut self, failure: FailureModel) -> Self {
        self.faults.failure = failure;
        self
    }

    /// Replaces the flight-recorder configuration.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

impl RunConfig<PoolConfig> {
    /// Replaces the worker count (`0` = one per available CPU).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.pool.workers = workers;
        self
    }

    /// Replaces the tick watchdog timeout.
    #[must_use]
    pub fn with_tick_timeout_ms(mut self, ms: u64) -> Self {
        self.pool.tick_timeout_ms = ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Partition;
    use crate::process::ProcessId;

    #[test]
    fn sim_default_is_faultless() {
        let sim = RunConfig::<()>::default();
        assert_eq!(sim.seed, 0);
        assert!(sim.faults.network.is_perfect());
        assert_eq!(sim.faults.network.channel, ChannelConfig::reliable());
        assert_eq!(sim.faults.failure, FailureModel::None);
        assert!(!sim.trace.is_enabled());
        assert_ne!(sim, sim.clone().with_seed(1));
    }

    #[test]
    fn pool_default_is_auto_sized() {
        let pool = RunConfig::<PoolConfig>::default();
        assert_eq!(pool.pool.workers, 0);
        assert_eq!(pool.pool.tick_timeout_ms, 60_000);
        assert_eq!(pool.faults, RunConfig::<()>::default().faults);
        assert!(pool.faults.network.is_perfect());
        assert!(!pool.trace.is_enabled());
    }

    #[test]
    fn builders_replace_fields() {
        let c = RunConfig::<PoolConfig>::default()
            .with_workers(3)
            .with_seed(9)
            .with_channel(ChannelConfig::paper_default())
            .with_tick_timeout_ms(5)
            .with_trace(TraceConfig::full())
            .with_failures(FailureModel::Stillborn {
                alive_fraction: 0.9,
            });
        assert_eq!(c.pool.workers, 3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.faults.network.channel, ChannelConfig::paper_default());
        assert_eq!(c.pool.tick_timeout_ms, 5);
        assert_eq!(c.trace, TraceConfig::full());
        assert_eq!(
            c.faults.failure,
            FailureModel::Stillborn {
                alive_fraction: 0.9
            }
        );
        let faults = c.faults.clone();
        assert_eq!(
            RunConfig::<()>::default().with_faults(faults).faults,
            c.faults
        );
    }

    #[test]
    fn partition_builder_shares_the_sim_shape() {
        let cuts = PartitionSchedule::none()
            .with_partition(Partition::cut([ProcessId(0), ProcessId(1)], 4).heal_at(9));
        let pool = RunConfig::<PoolConfig>::default().with_partitions(cuts.clone());
        let sim = RunConfig::<()>::default().with_partitions(cuts.clone());
        assert_eq!(pool.faults.network.partitions, cuts);
        assert_eq!(pool.faults, sim.faults);
    }

    #[test]
    fn builders_compose_without_clobbering() {
        let cuts = PartitionSchedule::none()
            .with_partition(Partition::cut([ProcessId(0), ProcessId(1)], 4).heal_at(9));
        let c = RunConfig::<()>::default()
            .with_partitions(cuts.clone())
            .with_channel(ChannelConfig::paper_default())
            .with_failures(FailureModel::PerObserver {
                alive_fraction: 0.8,
            });
        assert_eq!(c.faults.network.partitions, cuts);
        assert_eq!(c.faults.network.channel, ChannelConfig::paper_default());
        assert!(matches!(c.faults.failure, FailureModel::PerObserver { .. }));
    }
}
