//! The round-driven simulation engine.

use crate::exec::Ctx;
use crate::strategy::{DueMessage, RngStrategy, Strategy};
use da_core::channel::ChannelConfig;
use da_core::exec::{ExecProtocol, McHash};
use da_core::failure::{FailureModel, FailurePlan, Fate};
use da_core::fault::FaultConfig;
use da_core::metrics::{CounterId, Counters, FxBuildHasher, FxHasher, Histogram, TraceLog};
use da_core::process::{ProcessId, ProcessStatus};
use da_core::seed::{derive_seed, rng_from_seed};
use da_core::store::ProcessStore;
use da_core::topology::{NetFate, NetworkModel, PartitionSchedule, Topology};
use da_core::trace::{TraceConfig, TraceEvent, TraceRecorder, TraceVerdict};
use da_core::wheel::{DelayWheel, Envelope};
use da_core::wire::WireSize;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of one simulation run.
///
/// The derived `Default` (seed 0, faultless [`FaultConfig`]: reliable
/// channels, no topology, no partitions, no failures) is the single
/// source of truth; [`SimConfig::new`] delegates to it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed from which every RNG stream is derived.
    pub seed: u64,
    /// The unified fault surface: network model (channel + topology +
    /// partitions) and process failure model — the same
    /// `da_core::fault::FaultConfig` the live runtime's config embeds.
    pub faults: FaultConfig,
    /// Flight-recorder configuration (default: off — the engine holds no
    /// recorder and the hot path pays one branch on a `None`).
    pub trace: TraceConfig,
}

impl SimConfig {
    /// Configuration with reliable channels, no failures, seed 0.
    #[must_use]
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the whole fault surface in one step.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the default channel configuration.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.faults.network.channel = channel;
        self
    }

    /// Replaces the failure model (named to match
    /// `RuntimeConfig::with_failures`).
    #[must_use]
    pub fn with_failures(mut self, failure: FailureModel) -> Self {
        self.faults.failure = failure;
        self
    }

    /// Installs a topology (placement + per-link channel overrides).
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.faults.network.topology = Some(topology);
        self
    }

    /// Installs a partition schedule.
    #[must_use]
    pub fn with_partitions(mut self, partitions: PartitionSchedule) -> Self {
        self.faults.network.partitions = partitions;
        self
    }

    /// Replaces the flight-recorder configuration (same shape as
    /// `RuntimeConfig::with_trace`).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// The network model's default channel.
    #[must_use]
    pub fn channel(&self) -> ChannelConfig {
        self.faults.network.channel
    }

    /// The process failure model.
    #[must_use]
    pub fn failure(&self) -> &FailureModel {
        &self.faults.failure
    }
}

/// Summary of one executed round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundReport {
    /// The round that was executed.
    pub round: u64,
    /// Messages handed to `on_message` this round.
    pub delivered: u64,
    /// Messages queued for sending during this round.
    pub sent: u64,
}

impl RoundReport {
    /// True when the round neither delivered nor produced messages —
    /// the usual quiescence criterion.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.delivered == 0 && self.sent == 0
    }
}

/// Pre-registered ids for the counters the engine hot path touches on
/// every send and delivery, so simulating a message costs array
/// increments instead of string-keyed map probes — the same fast path
/// the live runtime's transport uses.
#[derive(Debug, Clone, Copy)]
struct SimHotIds {
    sent: CounterId,
    bytes_sent: CounterId,
    delivered: CounterId,
    dropped_channel: CounterId,
    dropped_partitioned: CounterId,
    dropped_dead: CounterId,
    dropped_observed_failed: CounterId,
    churn_crashes: CounterId,
    churn_recoveries: CounterId,
}

impl SimHotIds {
    fn register(counters: &mut Counters) -> Self {
        SimHotIds {
            sent: counters.register("sim.sent"),
            bytes_sent: counters.register("sim.bytes_sent"),
            delivered: counters.register("sim.delivered"),
            dropped_channel: counters.register("sim.dropped_channel"),
            dropped_partitioned: counters.register("sim.dropped_partitioned"),
            dropped_dead: counters.register("sim.dropped_dead"),
            dropped_observed_failed: counters.register("sim.dropped_observed_failed"),
            churn_crashes: counters.register("sim.churn_crashes"),
            churn_recoveries: counters.register("sim.churn_recoveries"),
        }
    }
}

/// The engine's flight-recorder state when tracing is enabled: the
/// event recorder plus the sim-side trace histograms.
#[derive(Debug, Clone)]
struct SimTrace {
    recorder: TraceRecorder,
    /// Delivery round minus send round, per delivered message.
    delivery_latency: Histogram,
    /// In-flight messages sampled at the end of every round — the
    /// simulator's analogue of the runtime's delay-wheel occupancy.
    queue_depth: Histogram,
}

impl SimTrace {
    fn new(config: &TraceConfig) -> Option<Self> {
        TraceRecorder::new(config).map(|recorder| SimTrace {
            recorder,
            delivery_latency: Histogram::new(),
            queue_depth: Histogram::new(),
        })
    }

    /// Records a crash or recovery of `pid`, when tracing is on.
    fn lifecycle(trace: &mut Option<Self>, round: u64, pid: ProcessId, verdict: TraceVerdict) {
        if let Some(t) = trace {
            t.recorder
                .record(TraceEvent::lifecycle(round, pid, verdict));
        }
    }
}

/// The round-driven simulation engine.
///
/// Owns one [`ExecProtocol`] instance per process (`ProcessId` = index),
/// the delay wheel of in-flight messages, the failure plan, and the metrics
/// registry, and drives the instances through [`Ctx`]: `on_start` once
/// before round 0, `on_message` for each message that survives the
/// channel and finds its target alive, and `on_round` once per round
/// while the process is alive, after the round's deliveries. Messages
/// sent from within the hooks travel through the unreliable channel and
/// arrive in a later round. See the crate-level docs for an end-to-end
/// example.
///
/// `Engine` is `Clone` when the protocol is: a clone is an independent
/// parallel universe (every RNG stream, queued message, and counter
/// duplicated) that steps identically until driven differently. The
/// bounded model checker forks universes this way at each choice point.
#[derive(Clone)]
pub struct Engine<P: ExecProtocol> {
    store: ProcessStore<P>,
    status: Vec<ProcessStatus>,
    /// In-flight messages by delivery round (one lane: send order).
    queue: DelayWheel<P::Msg>,
    /// Hook sends awaiting the channel / processes the round's fates
    /// brought back: empty between rounds, kept for their allocations.
    outbox: Vec<(ProcessId, P::Msg)>,
    recovered: Vec<usize>,
    counters: Counters,
    hot: SimHotIds,
    network: NetworkModel,
    plan: FailurePlan,
    engine_rng: SmallRng,
    observer_rng: SmallRng,
    trace: Option<SimTrace>,
    round: u64,
    started: bool,
    /// Per-round `(from, to)` send counts, maintained only when the
    /// network has scripted drops (`track_occurrences`); feeds the
    /// occurrence argument of [`Strategy::fate`].
    occurrences: HashMap<(ProcessId, ProcessId), u32, FxBuildHasher>,
    track_occurrences: bool,
}

impl<P: ExecProtocol> Engine<P>
where
    P::Msg: Clone + std::fmt::Debug + WireSize,
{
    /// Builds an engine over `processes` (process `i` gets `ProcessId(i)`).
    ///
    /// The failure model is materialised immediately: stillborn processes
    /// are crashed before round 0.
    #[must_use]
    pub fn new(config: SimConfig, processes: Vec<P>) -> Self {
        let population = processes.len();
        let plan = config.faults.failure.materialize(population, config.seed);
        let mut status = vec![ProcessStatus::Alive; population];
        for pid in plan.initially_crashed() {
            status[pid.index()] = ProcessStatus::Crashed;
        }
        let mut store = ProcessStore::with_capacity(config.seed, population);
        for p in processes {
            store.push(p);
        }
        let mut counters = Counters::new();
        let hot = SimHotIds::register(&mut counters);
        let track_occurrences = !config.faults.network.drops.is_empty();
        // Config input: bound the ring it sizes; slower sends spill.
        let ring_rounds = config.faults.network.max_latency().min(1024) as usize + 1;
        Engine {
            store,
            status,
            queue: DelayWheel::with_capacity(ring_rounds, 1),
            outbox: Vec::new(),
            recovered: Vec::new(),
            counters,
            hot,
            network: config.faults.network,
            observer_rng: rng_from_seed(plan.observation_seed()),
            plan,
            engine_rng: rng_from_seed(derive_seed(config.seed, 0)),
            trace: SimTrace::new(&config.trace),
            round: 0,
            started: false,
            occurrences: HashMap::default(),
            track_occurrences,
        }
    }

    /// Number of simulated processes.
    #[must_use]
    pub fn population(&self) -> usize {
        self.store.len()
    }

    /// The protocol instance at `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn process(&self, pid: ProcessId) -> &P {
        self.store.get(pid.index())
    }

    /// Mutable access to the protocol instance at `pid` (e.g. to inject a
    /// publication before running).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn process_mut(&mut self, pid: ProcessId) -> &mut P {
        self.store.get_mut(pid.index())
    }

    /// Iterates over `(pid, protocol)` pairs.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.store
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId::from_index(i), p))
    }

    /// Consumes the engine, returning the protocol instances.
    #[must_use]
    pub fn into_processes(self) -> Vec<P> {
        self.store.into_processes()
    }

    /// Liveness of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn status(&self, pid: ProcessId) -> ProcessStatus {
        self.status[pid.index()]
    }

    /// Ids of currently alive processes.
    #[must_use]
    pub fn alive(&self) -> Vec<ProcessId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_alive())
            .map(|(i, _)| ProcessId::from_index(i))
            .collect()
    }

    /// Crashes `pid` immediately: it stops executing and receiving.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn crash(&mut self, pid: ProcessId) {
        self.status[pid.index()] = ProcessStatus::Crashed;
    }

    /// Recovers `pid` immediately: it resumes at the next round. A
    /// manual escape hatch — unlike plan-driven recoveries it does not
    /// invoke `on_recover`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn recover(&mut self, pid: ProcessId) {
        self.status[pid.index()] = ProcessStatus::Alive;
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// A snapshot of the flight recorder's output so far — events in
    /// capture order, per-verdict totals, and the sim-side histograms
    /// (`delivery_latency_ticks`, `queue_depth`) — or `None` when the
    /// [`SimConfig::trace`] mode is off.
    #[must_use]
    pub fn trace_log(&self) -> Option<TraceLog> {
        self.trace.as_ref().map(|t| {
            let mut log = TraceLog::new();
            log.events = t.recorder.events().to_vec();
            log.dropped_events = t.recorder.dropped();
            log.verdict_counts = *t.recorder.counts();
            log.add_histogram("delivery_latency_ticks", &t.delivery_latency);
            log.add_histogram("queue_depth", &t.queue_depth);
            log
        })
    }

    /// The next round to execute.
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Number of messages currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Earliest delivery round among in-flight messages, or `None` when
    /// nothing is queued — lets drivers skip provably quiet rounds.
    #[must_use]
    pub fn next_delivery_round(&self) -> Option<u64> {
        self.queue.iter().next().map(|m| m.due_tick)
    }

    /// Schedules a crash/recover [`Fate`] for a future round through
    /// the failure plan — the exact path a replayed
    /// [`FailureModel::Schedule`] takes, including trace lifecycle
    /// events and `on_recover` hooks. The model checker injects explored
    /// crash points here, so a counterexample's fates replay verbatim as
    /// an ordinary scripted failure model.
    ///
    /// # Panics
    ///
    /// Panics if `fate.pid` is out of the population or `fate.round`
    /// has already executed (the plan is consulted at the start of
    /// each round).
    pub fn schedule_fate(&mut self, fate: Fate) {
        assert!(
            fate.pid.index() < self.store.len(),
            "fate pid {} out of population {}",
            fate.pid,
            self.store.len()
        );
        assert!(
            fate.round >= self.round,
            "fate round {} already executed (next round is {})",
            fate.round,
            self.round
        );
        self.plan.push_fate(fate);
    }

    /// Runs one round: applies scheduled fates and churn draws (invoking
    /// `on_recover` for plan-driven recoveries), calls `on_start` hooks
    /// (first round only), delivers all messages due, then runs
    /// `on_round` for every alive process in pid order.
    pub fn step_round(&mut self) -> RoundReport {
        self.step_round_with(&mut RngStrategy)
    }

    /// [`step_round`](Self::step_round) with an explicit [`Strategy`]
    /// deciding send fates and delivery order. `step_round` is exactly
    /// `step_round_with(&mut RngStrategy)`; the model checker passes a
    /// script-following strategy to walk one enumerated branch instead.
    pub fn step_round_with<S: Strategy>(&mut self, strategy: &mut S) -> RoundReport {
        let round = self.round;
        if self.track_occurrences {
            self.occurrences.clear();
        }
        let mut report = RoundReport {
            round,
            ..RoundReport::default()
        };

        // Taken so the hooks below can borrow the rest of the engine.
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut recovered = std::mem::take(&mut self.recovered);

        // Scripted fates apply at the start of the round.
        for fate in self.plan.fates_at(round) {
            let i = fate.pid.index();
            let was_alive = self.status[i].is_alive();
            if fate.crash {
                self.status[i] = ProcessStatus::Crashed;
                if was_alive {
                    SimTrace::lifecycle(&mut self.trace, round, fate.pid, TraceVerdict::Crashed);
                }
            } else {
                if !was_alive {
                    recovered.push(i);
                    SimTrace::lifecycle(&mut self.trace, round, fate.pid, TraceVerdict::Recovered);
                }
                self.status[i] = ProcessStatus::Alive;
            }
        }

        // Continuous churn: stateless per-(pid, round) draws from the
        // shared plan — the exact fates the live runtime reproduces.
        if self.plan.churn().is_some() {
            for i in 0..self.status.len() {
                let pid = ProcessId::from_index(i);
                let alive = self.status[i].is_alive();
                if !self.plan.churn_flips(pid, round, alive) {
                    continue;
                }
                if alive {
                    self.status[i] = ProcessStatus::Crashed;
                    self.counters.add(self.hot.churn_crashes, 1);
                    SimTrace::lifecycle(&mut self.trace, round, pid, TraceVerdict::Crashed);
                } else {
                    self.status[i] = ProcessStatus::Alive;
                    self.counters.add(self.hot.churn_recoveries, 1);
                    recovered.push(i);
                    SimTrace::lifecycle(&mut self.trace, round, pid, TraceVerdict::Recovered);
                }
            }
        }

        // Recovery re-entry, before any delivery of the round: processes
        // the plan just brought back run their `on_recover` hook (the
        // protocol's bootstrap re-entry path), in pid order.
        recovered.sort_unstable();
        recovered.dedup();
        for i in recovered.drain(..) {
            if !self.status[i].is_alive() {
                continue; // re-crashed in the same round
            }
            let me = ProcessId::from_index(i);
            let (proc_state, rng) = self.store.pair_mut(i, me);
            let mut ctx = Ctx {
                me,
                round,
                rng,
                counters: &mut self.counters,
                outbox: &mut outbox,
            };
            proc_state.on_recover(&mut ctx);
            report.sent += self.flush_outbox(&mut outbox, me, round, strategy);
        }

        if !self.started {
            self.started = true;
            for i in 0..self.store.len() {
                if !self.status[i].is_alive() {
                    continue;
                }
                let me = ProcessId::from_index(i);
                let (proc_state, rng) = self.store.pair_mut(i, me);
                let mut ctx = Ctx {
                    me,
                    round,
                    rng,
                    counters: &mut self.counters,
                    outbox: &mut outbox,
                };
                proc_state.on_start(&mut ctx);
                report.sent += self.flush_outbox(&mut outbox, me, round, strategy);
            }
        }

        // Deliver everything due this round (including stragglers from
        // earlier rounds when a latency model produced them). Latency is
        // clamped ≥ 1, so nothing sent while delivering can become due
        // in the same round: the due set is closed before delivery
        // starts, which is what lets an ordering strategy see it whole
        // and the round's bucket leave the wheel while it delivers.
        let mut due = self.queue.take_due(round);
        if strategy.wants_ordering() {
            let mut meta: Vec<DueMessage> = due
                .iter()
                .map(|m| DueMessage {
                    sent: m.sent_tick,
                    from: m.from,
                    to: m.to,
                })
                .collect();
            while !due.is_empty() {
                let idx = strategy.next_delivery(&meta).min(due.len() - 1);
                meta.remove(idx);
                let m = due.remove(idx);
                self.deliver_one(m, round, &mut outbox, &mut report, strategy);
            }
        } else {
            // Bucket order is FIFO (round, seq) order: the hot path.
            for m in due.drain(..) {
                self.deliver_one(m, round, &mut outbox, &mut report, strategy);
            }
        }
        self.queue.restore(due);

        // Round hooks for alive processes, in pid order.
        for i in 0..self.store.len() {
            if !self.status[i].is_alive() {
                continue;
            }
            let me = ProcessId::from_index(i);
            let (proc_state, rng) = self.store.pair_mut(i, me);
            let mut ctx = Ctx {
                me,
                round,
                rng,
                counters: &mut self.counters,
                outbox: &mut outbox,
            };
            proc_state.on_round(round, &mut ctx);
            report.sent += self.flush_outbox(&mut outbox, me, round, strategy);
        }

        if let Some(t) = self.trace.as_mut() {
            t.queue_depth.record(self.queue.len() as u64);
        }
        self.outbox = outbox;
        self.recovered = recovered;
        self.round += 1;
        report
    }

    /// Runs exactly `rounds` rounds and returns their reports.
    pub fn run_rounds(&mut self, rounds: u64) -> Vec<RoundReport> {
        (0..rounds).map(|_| self.step_round()).collect()
    }

    /// Runs until a round is quiet (nothing delivered, nothing sent, and no
    /// messages left in flight) or `max_rounds` have executed. Returns the
    /// number of rounds executed.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> u64 {
        for executed in 0..max_rounds {
            let report = self.step_round();
            if report.is_quiet() && self.queue.is_empty() {
                return executed + 1;
            }
        }
        max_rounds
    }

    /// Delivers one due message: dead/observed checks, counters and
    /// trace, the `on_message` hook, and the flush of whatever it sent.
    fn deliver_one<S: Strategy>(
        &mut self,
        m: Envelope<P::Msg>,
        round: u64,
        outbox: &mut Vec<(ProcessId, P::Msg)>,
        report: &mut RoundReport,
        strategy: &mut S,
    ) {
        let to = m.to;
        let verdict = if !self.status[to.index()].is_alive() {
            self.counters.add(self.hot.dropped_dead, 1);
            TraceVerdict::DroppedCrashed
        } else if !self.plan.observes_alive(&mut self.observer_rng) {
            // Per-observer failure model: the target appears failed for
            // this particular transmission.
            self.counters.add(self.hot.dropped_observed_failed, 1);
            TraceVerdict::DroppedObserved
        } else {
            report.delivered += 1;
            self.counters.add(self.hot.delivered, 1);
            TraceVerdict::Delivered
        };
        if let Some(t) = self.trace.as_mut() {
            t.recorder.record(TraceEvent {
                tick: round,
                from: m.from,
                to,
                payload: m.msg.wire_size() as u64,
                verdict,
            });
            if verdict == TraceVerdict::Delivered {
                t.delivery_latency.record(round - m.sent_tick);
            }
        }
        if verdict != TraceVerdict::Delivered {
            return;
        }
        let (proc_state, rng) = self.store.pair_mut(to.index(), to);
        let mut ctx = Ctx {
            me: to,
            round,
            rng,
            counters: &mut self.counters,
            outbox,
        };
        proc_state.on_message(m.from, m.msg, &mut ctx);
        report.sent += self.flush_outbox(outbox, to, round, strategy);
    }

    /// Routes queued sends through the network model: counts them,
    /// checks the partition schedule (a pure severed/not decision that
    /// consumes no randomness), asks the [`Strategy`] for each
    /// surviving send's fate (the default draws from the shared
    /// `da_core` channel model of its link, on the engine's single RNG
    /// stream), and enqueues survivors.
    fn flush_outbox<S: Strategy>(
        &mut self,
        outbox: &mut Vec<(ProcessId, P::Msg)>,
        from: ProcessId,
        round: u64,
        strategy: &mut S,
    ) -> u64 {
        let mut sent = 0;
        for (to, msg) in outbox.drain(..) {
            sent += 1;
            let size = msg.wire_size() as u64;
            self.counters.add(self.hot.sent, 1);
            self.counters.add(self.hot.bytes_sent, size);
            let occurrence = if self.track_occurrences {
                let count = self.occurrences.entry((from, to)).or_insert(0);
                let this = *count;
                *count += 1;
                this
            } else {
                0
            };
            let fate = strategy.fate(
                &self.network,
                from,
                to,
                round,
                occurrence,
                &mut self.engine_rng,
            );
            match fate {
                NetFate::Severed => self.counters.add(self.hot.dropped_partitioned, 1),
                NetFate::Lost => self.counters.add(self.hot.dropped_channel, 1),
                NetFate::Deliver { latency } => self.queue.schedule(
                    0,
                    Envelope {
                        from,
                        to,
                        sent_tick: round,
                        due_tick: round + latency,
                        msg,
                    },
                ),
            }
            if let Some(t) = self.trace.as_mut() {
                let mut event = TraceEvent {
                    tick: round,
                    from,
                    to,
                    payload: size,
                    verdict: TraceVerdict::Sent,
                };
                t.recorder.record(event);
                // Send-time drops stamp the send tick; drops decided at
                // delivery time (crashed / observed-failed destinations)
                // stamp the delivery tick instead.
                let dropped = match fate {
                    NetFate::Severed => Some(TraceVerdict::DroppedPartitioned),
                    NetFate::Lost => Some(TraceVerdict::DroppedChannel),
                    NetFate::Deliver { .. } => None,
                };
                if let Some(verdict) = dropped {
                    event.verdict = verdict;
                    t.recorder.record(event);
                }
            }
        }
        sent
    }
}

impl<P: ExecProtocol + McHash> Engine<P>
where
    P::Msg: Clone + std::fmt::Debug + WireSize + McHash,
{
    /// A 64-bit digest of the engine's complete behavioral state: the
    /// round, liveness statuses, every protocol instance's [`McHash`],
    /// every RNG stream's state (via clone-and-draw probing), the
    /// in-flight envelopes in delivery order (the wheel's in-order walk
    /// — only relative order can affect the future), and any
    /// not-yet-applied scheduled fates.
    ///
    /// Counters and the flight recorder are deliberately excluded:
    /// they are derived observations, and hashing them would make the
    /// model checker treat behaviorally identical states as distinct.
    ///
    /// Equal digests are (modulo 64-bit collisions) equal futures:
    /// the model checker uses this for visited-set deduplication.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        use rand::Rng as _;
        use std::hash::Hasher as _;

        fn probe_rng(rng: &SmallRng, h: &mut FxHasher) {
            // SmallRng keeps 256 bits of hidden state; four drawn words
            // from a clone pin it down without advancing the original.
            let mut probe = rng.clone();
            for _ in 0..4 {
                h.write_u64(probe.gen());
            }
        }

        let mut h = FxHasher::default();
        h.write_u64(self.round);
        h.write_u8(u8::from(self.started));
        for status in &self.status {
            h.write_u8(u8::from(status.is_alive()));
        }
        for process in self.store.iter() {
            process.mc_hash(&mut h);
        }
        for i in 0..self.store.len() {
            // `probe_rng` derives the stream on the fly when the slot was
            // never touched, so a lazily-stored engine and an eagerly
            // materialised one digest identically.
            probe_rng(&self.store.probe_rng(i, ProcessId::from_index(i)), &mut h);
        }
        probe_rng(&self.engine_rng, &mut h);
        probe_rng(&self.observer_rng, &mut h);
        for m in self.queue.iter() {
            h.write_u64(m.due_tick);
            h.write_u64(m.sent_tick);
            h.write_u32(m.from.0);
            h.write_u32(m.to.0);
            m.msg.mc_hash(&mut h);
        }
        for fate in self
            .plan
            .schedule()
            .iter()
            .filter(|f| f.round >= self.round)
        {
            h.write_u64(fate.round);
            h.write_u32(fate.pid.0);
            h.write_u8(u8::from(fate.crash));
        }
        h.finish()
    }
}

/// Test fixtures shared by the engine test modules below.
#[cfg(test)]
mod tests_support {
    use super::*;
    use da_core::Exec;

    /// Every process sends its id to the next process each round and
    /// counts receipts.
    pub struct Relay {
        pub received: u64,
        pub population: u32,
    }

    #[derive(Clone, Debug)]
    pub struct Token;

    impl WireSize for Token {
        fn wire_size(&self) -> usize {
            2
        }
    }

    impl ExecProtocol for Relay {
        type Msg = Token;

        fn on_message<X: Exec<Msg = Token>>(
            &mut self,
            _from: ProcessId,
            _msg: Token,
            _ctx: &mut X,
        ) {
            self.received += 1;
        }

        fn on_round<X: Exec<Msg = Token>>(&mut self, _round: u64, ctx: &mut X) {
            let next = ProcessId((ctx.me().0 + 1) % self.population);
            ctx.send(next, Token);
        }
    }

    pub fn relay_engine(config: SimConfig, n: u32) -> Engine<Relay> {
        let procs = (0..n)
            .map(|_| Relay {
                received: 0,
                population: n,
            })
            .collect();
        Engine::new(config, procs)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::relay_engine;
    use super::*;
    use da_core::{Exec, Latency};

    #[test]
    fn sim_config_new_equals_default() {
        assert_eq!(SimConfig::new(), SimConfig::default());
        assert_eq!(SimConfig::new().channel(), ChannelConfig::reliable());
        assert_eq!(*SimConfig::new().failure(), FailureModel::None);
        assert!(SimConfig::new().faults.network.is_perfect());
        assert_ne!(SimConfig::new(), SimConfig::new().with_seed(1));
    }

    #[test]
    fn messages_delivered_next_round() {
        let mut e = relay_engine(SimConfig::default(), 3);
        let r0 = e.step_round();
        assert_eq!(r0.sent, 3);
        assert_eq!(r0.delivered, 0, "nothing in flight during round 0");
        let r1 = e.step_round();
        assert_eq!(r1.delivered, 3);
    }

    #[test]
    fn reliable_channel_loses_nothing() {
        let mut e = relay_engine(SimConfig::default(), 4);
        e.run_rounds(10);
        assert_eq!(e.counters().get("sim.dropped_channel"), 0);
        // 4 sends per round × 10 rounds.
        assert_eq!(e.counters().get("sim.sent"), 40);
        // Everything sent before the last round was delivered.
        assert_eq!(e.counters().get("sim.delivered"), 36);
    }

    #[test]
    fn lossy_channel_drops_roughly_fraction() {
        let config = SimConfig::default()
            .with_seed(5)
            .with_channel(ChannelConfig::default().with_success_probability(0.5));
        let mut e = relay_engine(config, 10);
        e.run_rounds(100);
        let sent = e.counters().get("sim.sent");
        let dropped = e.counters().get("sim.dropped_channel");
        assert_eq!(sent, 1000);
        assert!(
            (350..650).contains(&dropped),
            "dropped {dropped} of {sent}, expected ≈ half"
        );
    }

    #[test]
    fn bytes_accounted() {
        let mut e = relay_engine(SimConfig::default(), 2);
        e.run_rounds(3);
        assert_eq!(
            e.counters().get("sim.bytes_sent"),
            e.counters().get("sim.sent") * 2
        );
    }

    #[test]
    fn stillborn_processes_never_run() {
        let config = SimConfig::default()
            .with_seed(1)
            .with_failures(FailureModel::Stillborn {
                alive_fraction: 0.5,
            });
        let mut e = relay_engine(config, 10);
        e.run_rounds(5);
        let crashed: Vec<ProcessId> = (0..10)
            .map(ProcessId)
            .filter(|&p| !e.status(p).is_alive())
            .collect();
        assert_eq!(crashed.len(), 5);
        for p in crashed {
            assert_eq!(e.process(p).received, 0, "{p} is crashed yet received");
        }
    }

    #[test]
    fn messages_to_crashed_processes_drop() {
        let mut e = relay_engine(SimConfig::default(), 3);
        e.crash(ProcessId(1));
        e.run_rounds(4);
        assert!(e.counters().get("sim.dropped_dead") > 0);
        assert_eq!(e.process(ProcessId(1)).received, 0);
    }

    #[test]
    fn recovery_resumes_execution() {
        let mut e = relay_engine(SimConfig::default(), 2);
        e.crash(ProcessId(1));
        e.run_rounds(3);
        assert_eq!(e.process(ProcessId(1)).received, 0);
        e.recover(ProcessId(1));
        e.run_rounds(3);
        assert!(e.process(ProcessId(1)).received > 0);
    }

    #[test]
    fn per_observer_drops_fraction() {
        let config = SimConfig::default()
            .with_seed(11)
            .with_failures(FailureModel::PerObserver {
                alive_fraction: 0.5,
            });
        let mut e = relay_engine(config, 10);
        e.run_rounds(100);
        let observed = e.counters().get("sim.dropped_observed_failed");
        assert!(
            (350..650).contains(&observed),
            "observer drops {observed}, expected ≈ 500"
        );
        // Nobody is actually crashed in this model.
        assert_eq!(e.alive().len(), 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed: u64| {
            let config = SimConfig::default()
                .with_seed(seed)
                .with_channel(ChannelConfig::paper_default())
                .with_failures(FailureModel::Stillborn {
                    alive_fraction: 0.8,
                });
            let mut e = relay_engine(config, 20);
            e.run_rounds(30);
            (
                e.counters().get("sim.sent"),
                e.counters().get("sim.delivered"),
                e.counters().get("sim.dropped_channel"),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn quiescence_detected() {
        /// Sends one message at start; goes quiet afterwards.
        struct OneShot;
        #[derive(Clone, Debug)]
        struct M;
        impl WireSize for M {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl ExecProtocol for OneShot {
            type Msg = M;
            fn on_start<X: Exec<Msg = M>>(&mut self, ctx: &mut X) {
                if ctx.me() == ProcessId(0) {
                    ctx.send(ProcessId(1), M);
                }
            }
            fn on_message<X: Exec<Msg = M>>(&mut self, _f: ProcessId, _m: M, _c: &mut X) {}
        }
        let mut e = Engine::new(SimConfig::default(), vec![OneShot, OneShot]);
        let rounds = e.run_until_quiescent(100);
        assert!(rounds < 100, "quiesced after {rounds} rounds");
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn scheduled_fates_apply() {
        let config = SimConfig::default().with_failures(FailureModel::Schedule(vec![
            Fate {
                round: 2,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 4,
                pid: ProcessId(0),
                crash: false,
            },
        ]));
        let mut e = relay_engine(config, 2);
        e.run_rounds(2);
        assert!(e.status(ProcessId(0)).is_alive());
        e.step_round(); // round 2 applies the crash
        assert!(!e.status(ProcessId(0)).is_alive());
        e.run_rounds(2); // rounds 3 and 4; round 4 recovers
        assert!(e.status(ProcessId(0)).is_alive());
    }

    #[test]
    fn latency_jitter_delivers_eventually() {
        let config = SimConfig::default().with_channel(
            ChannelConfig::default().with_latency(Latency::UniformRounds { min: 1, max: 4 }),
        );
        let mut e = relay_engine(config, 5);
        e.run_rounds(20);
        let total: u64 = e.processes().map(|(_, p)| p.received).sum();
        assert!(total > 0);
        // All messages sent at least 4 rounds ago must have arrived.
        assert_eq!(
            e.counters().get("sim.delivered") + e.in_flight() as u64,
            e.counters().get("sim.sent")
        );
    }

    #[test]
    fn partitions_sever_and_heal() {
        use da_core::topology::{NodeId, Partition, PartitionSchedule, Topology};
        // Relay ring over 3 processes: 0 and 1 on node a, 2 on node b, so
        // exactly the 1→2 and 2→0 hops cross the cut. Split for rounds 2..5.
        let config = SimConfig::default()
            .with_topology(Topology::with_nodes(["a", "b"]).with_placement(ProcessId(2), NodeId(1)))
            .with_partitions(PartitionSchedule::none().with_partition(
                Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 2).heal_at(5),
            ));
        let mut e = relay_engine(config, 3);
        e.run_rounds(2);
        assert_eq!(e.counters().get("sim.dropped_partitioned"), 0);
        e.run_rounds(3); // rounds 2..4: two cross-island sends severed per round
        assert_eq!(e.counters().get("sim.dropped_partitioned"), 6);
        let before = e.process(ProcessId(2)).received;
        e.run_rounds(3);
        assert!(
            e.process(ProcessId(2)).received > before,
            "traffic flows again after the heal"
        );
        // Every send is delivered, severed, or still in flight.
        assert_eq!(
            e.counters().get("sim.delivered")
                + e.counters().get("sim.dropped_partitioned")
                + e.in_flight() as u64,
            e.counters().get("sim.sent")
        );
    }
}

#[cfg(test)]
mod trace_engine_tests {
    use super::tests_support::relay_engine;
    use super::*;

    #[test]
    fn trace_off_allocates_no_recorder() {
        let e = relay_engine(SimConfig::default(), 3);
        assert!(e.trace_log().is_none());
    }

    #[test]
    fn full_trace_mirrors_the_counter_ledger() {
        let config = SimConfig::default()
            .with_seed(5)
            .with_channel(ChannelConfig::default().with_success_probability(0.5))
            .with_trace(TraceConfig::full());
        let mut e = relay_engine(config, 10);
        e.run_rounds(50);
        let log = e.trace_log().unwrap();
        assert_eq!(log.count(TraceVerdict::Sent), e.counters().get("sim.sent"));
        assert_eq!(
            log.count(TraceVerdict::Delivered),
            e.counters().get("sim.delivered")
        );
        assert_eq!(
            log.count(TraceVerdict::DroppedChannel),
            e.counters().get("sim.dropped_channel")
        );
        // Every delivered message contributed one latency sample.
        let latency = log.histogram("delivery_latency_ticks").unwrap();
        assert_eq!(latency.count(), e.counters().get("sim.delivered"));
        assert!(latency.max() >= 1, "reliable latency is ≥ 1 round");
        assert!(log.histogram("queue_depth").unwrap().count() == 50);
        assert_eq!(log.dropped_events, 0);
        assert_eq!(
            log.events.len() as u64,
            log.verdict_counts.iter().sum::<u64>()
        );
    }

    #[test]
    fn counters_only_mode_skips_the_event_buffer() {
        let config = SimConfig::default().with_trace(TraceConfig::counters_only());
        let mut e = relay_engine(config, 4);
        e.run_rounds(10);
        let log = e.trace_log().unwrap();
        assert!(log.events.is_empty());
        assert_eq!(log.count(TraceVerdict::Sent), 40);
    }

    #[test]
    fn capacity_bound_counts_overflow() {
        let config = SimConfig::default().with_trace(TraceConfig::full().with_capacity(8));
        let mut e = relay_engine(config, 4);
        e.run_rounds(10);
        let log = e.trace_log().unwrap();
        assert_eq!(log.events.len(), 8);
        assert!(log.dropped_events > 0);
        assert_eq!(log.count(TraceVerdict::Sent), 40, "counts see past the cap");
    }

    #[test]
    fn churn_emits_lifecycle_events() {
        let config = SimConfig::default()
            .with_seed(9)
            .with_failures(FailureModel::Churn {
                crash_probability: 0.1,
                recover_probability: 0.1,
            })
            .with_trace(TraceConfig::full());
        let mut e = relay_engine(config, 20);
        e.run_rounds(40);
        let log = e.trace_log().unwrap();
        assert_eq!(
            log.count(TraceVerdict::Crashed),
            e.counters().get("sim.churn_crashes")
        );
        assert_eq!(
            log.count(TraceVerdict::Recovered),
            e.counters().get("sim.churn_recoveries")
        );
        assert!(log
            .events
            .iter()
            .filter(|e| e.verdict == TraceVerdict::Crashed)
            .all(|e| e.from == e.to && e.payload == 0));
    }

    #[test]
    fn same_seed_traces_are_identical() {
        let run = || {
            let config = SimConfig::default()
                .with_seed(77)
                .with_channel(ChannelConfig::paper_default())
                .with_trace(TraceConfig::full());
            let mut e = relay_engine(config, 10);
            e.run_rounds(30);
            e.trace_log().unwrap().canonical_events()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod churn_engine_tests {
    use super::*;
    use da_core::Exec;

    struct Quiet;
    #[derive(Clone, Debug)]
    struct Never;
    impl WireSize for Never {
        fn wire_size(&self) -> usize {
            0
        }
    }
    impl ExecProtocol for Quiet {
        type Msg = Never;
        fn on_message<X: Exec<Msg = Never>>(&mut self, _f: ProcessId, _m: Never, _c: &mut X) {}
    }

    #[test]
    fn churn_converges_to_stationary_aliveness() {
        // crash 0.05 / recover 0.15 → stationary alive = 0.75.
        let config = SimConfig::default()
            .with_seed(5)
            .with_failures(FailureModel::Churn {
                crash_probability: 0.05,
                recover_probability: 0.15,
            });
        let mut e = Engine::new(config, (0..200).map(|_| Quiet).collect());
        e.run_rounds(50); // mix
        let mut samples = Vec::new();
        for _ in 0..100 {
            e.step_round();
            samples.push(e.alive().len() as f64 / 200.0);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (mean - 0.75).abs() < 0.08,
            "mean aliveness {mean}, expected ≈ 0.75"
        );
        assert!(e.counters().get("sim.churn_crashes") > 0);
        assert!(e.counters().get("sim.churn_recoveries") > 0);
    }

    #[test]
    fn churn_is_deterministic() {
        let run = || {
            let config = SimConfig::default()
                .with_seed(9)
                .with_failures(FailureModel::Churn {
                    crash_probability: 0.1,
                    recover_probability: 0.1,
                });
            let mut e = Engine::new(config, (0..50).map(|_| Quiet).collect());
            e.run_rounds(60);
            (
                e.counters().get("sim.churn_crashes"),
                e.counters().get("sim.churn_recoveries"),
                e.alive().len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rates_are_inert() {
        let config = SimConfig::default().with_failures(FailureModel::Churn {
            crash_probability: 0.0,
            recover_probability: 0.0,
        });
        let mut e = Engine::new(config, (0..20).map(|_| Quiet).collect());
        e.run_rounds(30);
        assert_eq!(e.alive().len(), 20);
        assert_eq!(e.counters().get("sim.churn_crashes"), 0);
    }
}
