//! Runtime configuration.

use da_core::channel::ChannelConfig;
use da_core::failure::FailureModel;
use da_core::fault::FaultConfig;
use da_core::topology::{NetworkModel, PartitionSchedule, Topology};
use da_core::trace::TraceConfig;
use da_core::wheel::MAX_RING_TICKS;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Configuration of one live runtime.
///
/// Mirrors `da_simnet::SimConfig`'s builder style; `new()` delegates to
/// the derived `Default`. The embedded [`FaultConfig`] is the same
/// unified fault surface (network model + failure model) the simulator's
/// config embeds, so one value carries a whole fault scenario across
/// both substrates:
///
/// ```
/// use da_core::channel::ChannelConfig;
/// use da_runtime::RuntimeConfig;
///
/// let lossy = ChannelConfig::paper_default(); // p_succ = 0.85
/// let config = RuntimeConfig::default()
///     .with_workers(2)
///     .with_seed(42)
///     .with_channel(lossy);
/// assert!((config.channel().success_probability - 0.85).abs() < 1e-12);
/// assert_eq!(RuntimeConfig::new(), RuntimeConfig::default());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Worker threads in the pool. `0` (the default) means one per
    /// available CPU, capped by the population.
    pub workers: usize,
    /// Master seed from which every process' RNG stream is derived —
    /// the same derivation as the simulator, so a process keeps its
    /// stream across substrates. Also roots the per-edge channel fault
    /// streams when the network model is not perfect.
    pub seed: u64,
    /// The unified fault surface applied by the transport
    /// ([`crate::FaultyRouter`] consumes `faults.network`: default
    /// channel, per-link topology overrides, partition schedule) and by
    /// the per-worker [`crate::LifecycleController`] (`faults.failure`).
    /// The default is the absence of faults — perfect channels, no
    /// topology, no partitions, no crashes.
    pub faults: FaultConfig,
    /// Watchdog: how long the coordinator waits for a worker to ack a
    /// tick before declaring the pool wedged (panicking with
    /// a diagnostic rather than hanging CI forever).
    pub tick_timeout_ms: u64,
    /// Flight-recorder configuration (default: off — workers hold no
    /// recorder and every hot-path trace hook is one branch on a
    /// `None`). Same shape as `da_simnet::SimConfig::trace`, so one
    /// trace setting drives both substrates.
    pub trace: TraceConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 0,
            seed: 0,
            faults: FaultConfig::default(),
            tick_timeout_ms: 60_000,
            trace: TraceConfig::off(),
        }
    }
}

impl RuntimeConfig {
    /// Auto-sized worker pool, seed 0, perfect channels, no failures,
    /// tracing off.
    #[must_use]
    pub fn new() -> Self {
        RuntimeConfig::default()
    }

    /// Replaces the worker count (`0` = one per available CPU).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the whole fault surface in one step — handy when a
    /// harness built one [`FaultConfig`] for both substrates.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the network model's default channel, keeping any
    /// topology and partition schedule.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.faults.network.channel = channel;
        self
    }

    /// Installs a topology (process→node placement plus per-link
    /// channel overrides) on the network model.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.faults.network.topology = Some(topology);
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
    /// per-observer sampling, scripted fates, or continuous churn,
    /// exactly as accepted by `da_simnet::SimConfig::with_failures`. The
    /// plan is materialised once at [`crate::Runtime::spawn`] and
    /// applied per worker stripe by a [`crate::LifecycleController`];
    /// because every liveness draw is keyed on `(pid, tick)` rather
    /// than a shared stream, the same seed produces the same
    /// crash/recovery schedule here as under the simulator, at any
    /// worker count. (Per-observer draws are per transmission by
    /// definition and come from per-worker observation streams —
    /// statistically the paper's Fig. 11 model, with only the
    /// meaningless global draw order differing from the simulator's.)
    ///
    /// ```
    /// use da_core::failure::FailureModel;
    /// use da_runtime::RuntimeConfig;
    ///
    /// let config = RuntimeConfig::default().with_seed(7).with_failures(
    ///     FailureModel::Churn {
    ///         crash_probability: 0.01,
    ///         recover_probability: 0.2,
    ///     },
    /// );
    /// assert!(matches!(config.faults.failure, FailureModel::Churn { .. }));
    /// assert_eq!(*RuntimeConfig::default().failure(), FailureModel::None);
    /// ```
    #[must_use]
    pub fn with_failures(mut self, failure: FailureModel) -> Self {
        self.faults.failure = failure;
        self
    }

    /// Replaces the tick watchdog timeout.
    #[must_use]
    pub fn with_tick_timeout_ms(mut self, ms: u64) -> Self {
        self.tick_timeout_ms = ms;
        self
    }

    /// Replaces the flight-recorder configuration (same shape as
    /// `da_simnet::SimConfig::with_trace`).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// The network model's default channel (convenience accessor).
    #[must_use]
    pub fn channel(&self) -> ChannelConfig {
        self.faults.network.channel
    }

    /// The process failure model (convenience accessor).
    #[must_use]
    pub fn failure(&self) -> &FailureModel {
        &self.faults.failure
    }

    /// The full network model the transport consumes.
    #[must_use]
    pub fn network(&self) -> &NetworkModel {
        &self.faults.network
    }

    /// How many ticks a fast worker may run ahead of the slowest peer's
    /// *published* frontier: the network's latency floor, clamped to
    /// `[1, MAX_RING_TICKS]`.
    ///
    /// The scheduler has no tick barrier: a worker may execute tick `n`
    /// once every peer has published its outbound batches through tick
    /// `n - effective_lag()`. Anything a peer sends later is due strictly
    /// after `n` — its latency is at least
    /// [`da_core::topology::NetworkModel::min_latency`], the minimum over
    /// the default channel *and* every per-link override — so no
    /// delivery can be missed. One-tick links pin workers within one
    /// tick of each other; a floor of `k` ticks lets them drift `k`
    /// apart at the price of up to `k` batches buffered per lane, which
    /// is why the floor, being config input, is capped where the wheel
    /// ring is.
    ///
    /// ```
    /// use da_core::channel::{ChannelConfig, Latency};
    /// use da_runtime::RuntimeConfig;
    ///
    /// assert_eq!(RuntimeConfig::default().effective_lag(), 1);
    /// let slack = RuntimeConfig::default()
    ///     .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(3)));
    /// assert_eq!(slack.effective_lag(), 3);
    /// ```
    #[must_use]
    pub fn effective_lag(&self) -> u64 {
        self.faults.network.min_latency().clamp(1, MAX_RING_TICKS)
    }

    /// The effective pool size for a population: the configured count, or
    /// one worker per CPU when auto-sized — never more workers than
    /// processes, never zero.
    #[must_use]
    pub fn effective_workers(&self, population: usize) -> usize {
        let base = if self.workers == 0 {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        base.min(population.max(1)).max(1)
    }

    /// The tick watchdog as a [`Duration`].
    #[must_use]
    pub fn tick_timeout(&self) -> Duration {
        Duration::from_millis(self.tick_timeout_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_equals_default() {
        assert_eq!(RuntimeConfig::new(), RuntimeConfig::default());
        assert!(RuntimeConfig::default().channel().is_perfect());
        assert!(RuntimeConfig::default().network().is_perfect());
    }

    #[test]
    fn builders_replace_fields() {
        let c = RuntimeConfig::default()
            .with_workers(3)
            .with_seed(9)
            .with_channel(ChannelConfig::paper_default())
            .with_tick_timeout_ms(5)
            .with_trace(TraceConfig::full())
            .with_failures(FailureModel::Stillborn {
                alive_fraction: 0.9,
            });
        assert_eq!(c.workers, 3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.channel(), ChannelConfig::paper_default());
        assert_eq!(c.tick_timeout(), Duration::from_millis(5));
        assert_eq!(c.trace, TraceConfig::full());
        assert!(!RuntimeConfig::default().trace.is_enabled());
        assert_eq!(
            c.faults.failure,
            FailureModel::Stillborn {
                alive_fraction: 0.9
            }
        );
    }

    #[test]
    fn topology_and_partition_builders_share_the_sim_shape() {
        use da_core::topology::{NodeId, Partition, Topology};
        let topo = Topology::with_nodes(["a", "b"]).with_placement_range(0..2, NodeId(1));
        let cuts = PartitionSchedule::none()
            .with_partition(Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 4).heal_at(9));
        let c = RuntimeConfig::default()
            .with_topology(topo.clone())
            .with_partitions(cuts.clone());
        assert_eq!(c.faults.network.topology, Some(topo));
        assert_eq!(c.faults.network.partitions, cuts);
    }

    #[test]
    fn effective_lag_is_channel_capped_and_never_zero() {
        use da_core::channel::Latency;
        let fixed = |ticks| {
            RuntimeConfig::default()
                .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(ticks)))
        };
        assert_eq!(RuntimeConfig::default().effective_lag(), 1);
        assert_eq!(fixed(0).effective_lag(), 1, "never zero");
        assert_eq!(fixed(4).effective_lag(), 4);
        assert_eq!(
            fixed(u64::MAX).effective_lag(),
            1024,
            "config input is capped"
        );
        let jittery = RuntimeConfig::default().with_channel(
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 2, max: 6 }),
        );
        assert_eq!(jittery.effective_lag(), 2);
        // A faster per-link override tightens the bound below the
        // default channel's floor: the wheel must honour the quickest
        // link anywhere in the topology.
        use da_core::topology::{NodeId, Topology};
        let fast_link = jittery.with_topology(Topology::with_nodes(["a", "b"]).with_link(
            NodeId(0),
            NodeId(1),
            ChannelConfig::reliable().with_latency(Latency::Fixed(1)),
        ));
        assert_eq!(fast_link.effective_lag(), 1);
    }

    #[test]
    fn effective_workers_clamps() {
        let c = RuntimeConfig::default().with_workers(8);
        assert_eq!(c.effective_workers(3), 3, "never more workers than procs");
        assert_eq!(c.effective_workers(100), 8);
        assert_eq!(c.effective_workers(0), 1, "empty population still ticks");
        let auto = RuntimeConfig::default();
        assert!(auto.effective_workers(1_000_000) >= 1);
    }
}
