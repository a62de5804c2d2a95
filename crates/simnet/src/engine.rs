//! The round-driven simulation engine.

use crate::strategy::{RngStrategy, Strategy};
use da_core::exec::{ExecProtocol, McHash};
use da_core::failure::Fate;
use da_core::ledger::{EnvelopeLedger, Registry, Renderer};
use da_core::lifecycle::LifecycleController;
use da_core::metrics::{Counters, FxHasher, Histogram, Tally, TraceLog};
use da_core::network::{NetFate, NetworkModel, Occurrences};
use da_core::process::{ProcessId, ProcessStatus};
use da_core::run::RunConfig;
use da_core::seed::{derive_seed, rng_from_seed};
use da_core::store::ProcessStore;
use da_core::stripe::{Outbound, Stripe, TickReport};
use da_core::wheel::{DelayWheel, Envelope, MAX_RING_TICKS};
use da_core::wire::WireSize;
use rand::rngs::SmallRng;
use std::sync::Arc;

/// Configuration of one simulation run: the seed, the faults and the
/// flight recorder — `da_core`'s [`RunConfig`] with no pool knobs, so
/// its setters are the ones the worker pool's config has.
pub type SimConfig = RunConfig;

/// The simulator's network: the wheel of in-flight messages and what
/// decides a send's way into it.
#[derive(Clone)]
struct SimNet<M> {
    /// In-flight messages by delivery round (one lane: send order).
    queue: DelayWheel<M>,
    model: NetworkModel,
    /// The one stream every send's fate is drawn on, in send order.
    rng: SmallRng,
    /// Per-round `(from, to)` send counts, maintained only when the
    /// network has scripted drops (`track_occurrences`); feeds the
    /// occurrence argument of [`Strategy::fate`].
    occurrences: Occurrences,
    track_occurrences: bool,
}

/// The simulator's [`Outbound`]: asks the [`Strategy`] for each send's
/// fate (the default checks the partition schedule and scripted drops —
/// pure, no randomness — then draws from the shared `da_core` channel
/// model, on the engine's single RNG stream) and schedules
/// survivors straight into the wheel.
struct Routed<'a, M, S> {
    net: &'a mut SimNet<M>,
    strategy: &'a mut S,
}

impl<M, S: Strategy> Outbound for Routed<'_, M, S> {
    type Msg = M;

    // Carries the message by value into the wheel: one out-of-line hop
    // re-copies it and moves the send path's store-forwarding stall here.
    #[inline(always)]
    fn send(&mut self, from: ProcessId, to: ProcessId, tick: u64, msg: M) -> NetFate {
        let net = &mut *self.net;
        let occurrence = if net.track_occurrences {
            net.occurrences.bump(from, to)
        } else {
            0
        };
        let fate = self
            .strategy
            .fate(&net.model, from, to, tick, occurrence, &mut net.rng);
        if let NetFate::Deliver { latency } = fate {
            net.queue.schedule(
                0,
                Envelope {
                    from,
                    to,
                    sent_tick: tick,
                    // A configured latency can be anything: an envelope
                    // due at `u64::MAX` stays in flight.
                    due_tick: tick.saturating_add(latency),
                    msg,
                },
            );
        }
        fate
    }
}

/// The round-driven simulation engine.
///
/// Owns one [`ExecProtocol`] instance per process (`ProcessId` = index)
/// in a single `da_core` [`Stripe`] — with the failure plan, the metrics
/// registry and the flight recorder — plus the delay wheel of in-flight
/// messages, and drives the stripe's tick body once per round:
/// `on_start` once before round 0, `on_message` for each message that
/// survives the channel and finds its target alive, and `on_round` once
/// per round while the process is alive, after the round's deliveries.
/// Messages sent from within the hooks travel through the unreliable
/// channel and arrive in a later round. See the crate-level docs for an
/// end-to-end example.
///
/// `Engine` is `Clone` when the protocol is: a clone is an independent
/// parallel universe (every RNG stream, queued message, and counter
/// duplicated) that steps identically until driven differently. The
/// bounded model checker forks universes this way at each choice point.
#[derive(Clone)]
pub struct Engine<P: ExecProtocol> {
    stripe: Stripe<P>,
    net: SimNet<P::Msg>,
    /// In-flight messages sampled at the end of every round while
    /// tracing is on — the simulator's analogue of the runtime's
    /// delay-wheel occupancy.
    queue_depth: Histogram,
    renderer: Renderer,
    round: u64,
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
        let store = ProcessStore::from_vec(config.seed, processes);
        let lifecycle = LifecycleController::new(Arc::new(plan), 0, 1, population);
        let track_occurrences = !config.faults.network.drops.is_empty();
        // Config input: bound the ring it sizes; slower sends spill.
        let ring_rounds = config.faults.network.max_latency().min(MAX_RING_TICKS) as usize + 1;
        Engine {
            stripe: Stripe::new(store, lifecycle, &config.trace),
            net: SimNet {
                queue: DelayWheel::with_capacity(ring_rounds, 1),
                model: config.faults.network,
                rng: rng_from_seed(derive_seed(config.seed, 0)),
                occurrences: Occurrences::default(),
                track_occurrences,
            },
            queue_depth: Histogram::new(),
            renderer: Renderer::default(),
            round: 0,
        }
    }

    /// Number of simulated processes.
    #[must_use]
    pub fn population(&self) -> usize {
        self.stripe.store.len()
    }

    /// The protocol instance at `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn process(&self, pid: ProcessId) -> &P {
        self.stripe.store.get(pid.index())
    }

    /// Mutable access to the protocol instance at `pid` (e.g. to inject a
    /// publication before running).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn process_mut(&mut self, pid: ProcessId) -> &mut P {
        self.stripe.store.get_mut(pid.index())
    }

    /// Iterates over `(pid, protocol)` pairs.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.stripe
            .store
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId::from_index(i), p))
    }

    /// Consumes the engine, returning the protocol instances.
    #[must_use]
    pub fn into_processes(self) -> Vec<P> {
        self.stripe.store.into_processes()
    }

    /// Liveness of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn status(&self, pid: ProcessId) -> ProcessStatus {
        self.stripe.lifecycle.status(pid.index())
    }

    /// Ids of currently alive processes.
    #[must_use]
    pub fn alive(&self) -> Vec<ProcessId> {
        (0..self.population())
            .filter(|&i| self.stripe.lifecycle.is_alive(i))
            .map(ProcessId::from_index)
            .collect()
    }

    /// The shared metrics registry, with the ledger under `sim.*` names
    /// and the tally under its protocols' names as of the last round.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.stripe.ledger.counters
    }

    /// What the protocol counted so far, per group.
    #[must_use]
    pub fn tally(&self) -> &Tally {
        &self.stripe.ledger.tally
    }

    /// Every envelope sent so far, by what became of it.
    #[must_use]
    pub fn ledger(&self) -> EnvelopeLedger {
        self.stripe.ledger.envelopes
    }

    /// A snapshot of the flight recorder's output so far — events in
    /// capture order, per-verdict totals, and the sim-side histograms
    /// (`delivery_latency_ticks`, `queue_depth`) — or `None` when the
    /// [`RunConfig::trace`] mode is off.
    #[must_use]
    pub fn trace_log(&self) -> Option<TraceLog> {
        let extra = ("queue_depth", &self.queue_depth);
        self.stripe.ledger.trace.as_ref().map(|t| t.log(&[extra]))
    }

    /// The next round to execute.
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Number of messages currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.net.queue.len()
    }

    /// Schedules a crash/recover [`Fate`] for a future round through
    /// the failure plan — the exact path a replayed
    /// [`da_core::FailureModel::Schedule`] takes, including trace lifecycle
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
            fate.pid.index() < self.population(),
            "fate pid {} out of population {}",
            fate.pid,
            self.population()
        );
        assert!(
            fate.round >= self.round,
            "fate round {} already executed (next round is {})",
            fate.round,
            self.round
        );
        self.stripe.lifecycle.push_fate(fate);
    }

    /// Runs one round: applies scheduled fates and churn draws (invoking
    /// `on_recover` for plan-driven recoveries), calls `on_start` hooks
    /// (first round only), delivers all messages due, then runs
    /// `on_round` for every alive process in pid order.
    pub fn step_round(&mut self) -> TickReport {
        self.step_round_with(&mut RngStrategy)
    }

    /// [`step_round`](Self::step_round) with an explicit [`Strategy`]
    /// deciding each send's fate and, once per round, the order of the
    /// round's due set. `step_round` is exactly
    /// `step_round_with(&mut RngStrategy)`; the model checker passes a
    /// script-following strategy to walk one enumerated branch instead.
    pub fn step_round_with<S: Strategy>(&mut self, strategy: &mut S) -> TickReport {
        let round = self.round;
        let before = self.ledger();
        if self.net.track_occurrences {
            self.net.occurrences.clear();
        }
        let mut out = Routed {
            net: &mut self.net,
            strategy,
        };
        self.stripe.begin_tick(round, &mut out);

        // Deliver everything due this round (including stragglers from
        // earlier rounds when a latency model produced them). Latency is
        // clamped ≥ 1, so nothing sent while delivering can become due
        // in the same round: the due set is closed before delivery
        // starts, which is what lets the strategy order it whole, once,
        // and the round's bucket leave the wheel while it delivers.
        let mut due = Vec::new();
        out.net.queue.release_through(round, |_, mut bucket| {
            // One bucket ships per round; a second would append.
            if due.is_empty() {
                std::mem::swap(&mut due, &mut bucket);
            } else {
                due.append(&mut bucket);
            }
            bucket
        });
        out.strategy.order(&mut due);
        for m in due.drain(..) {
            self.stripe.deliver(m, &mut out);
        }
        out.net.queue.restore(due);

        self.stripe.round_hooks(&mut out);

        if self.stripe.ledger.trace.is_some() {
            self.queue_depth.record(self.net.queue.len() as u64);
        }
        self.round += 1;
        let now = self.ledger();
        let ledger = &mut self.stripe.ledger;
        self.renderer
            .render(Registry::Sim, &now, &ledger.tally, &mut ledger.counters);
        TickReport {
            tick: round,
            sent: now.sent - before.sent,
            delivered: now.delivered - before.delivered,
            pending: self.in_flight() as u64,
        }
    }

    /// Runs exactly `rounds` rounds and returns their reports.
    pub fn run_rounds(&mut self, rounds: u64) -> Vec<TickReport> {
        (0..rounds).map(|_| self.step_round()).collect()
    }

    /// Runs until a round is quiet (nothing delivered, nothing sent, and no
    /// messages left in flight) or `max_rounds` have executed. Returns the
    /// number of rounds executed.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> u64 {
        for executed in 0..max_rounds {
            if self.step_round().is_quiet() {
                return executed + 1;
            }
        }
        max_rounds
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

        let (store, lifecycle) = (&self.stripe.store, &self.stripe.lifecycle);
        let mut h = FxHasher::default();
        h.write_u64(self.round);
        h.write_u8(u8::from(self.stripe.started()));
        for i in 0..store.len() {
            h.write_u8(u8::from(lifecycle.is_alive(i)));
        }
        for process in store.iter() {
            process.mc_hash(&mut h);
        }
        for i in 0..store.len() {
            // `probe_rng` derives the stream on the fly when the slot was
            // never touched, so a lazily-stored engine and an eagerly
            // materialised one digest identically.
            probe_rng(&store.probe_rng(i, ProcessId::from_index(i)), &mut h);
        }
        probe_rng(&self.net.rng, &mut h);
        probe_rng(lifecycle.observer_rng(), &mut h);
        for m in self.net.queue.iter() {
            h.write_u64(m.due_tick);
            h.write_u64(m.sent_tick);
            h.write_u32(m.from.0);
            h.write_u32(m.to.0);
            m.msg.mc_hash(&mut h);
        }
        for fate in lifecycle
            .plan()
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

/// The shared ring relay, sending in every round.
#[cfg(test)]
fn relay_engine(config: SimConfig, n: u32) -> Engine<da_core::testkit::Relay> {
    Engine::new(config, da_core::testkit::Relay::ring(n, u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::{ChannelConfig, Exec, FailureModel, Latency};

    /// A scripted fate for `pid` at `round`.
    fn fate(round: u64, pid: u32, crash: bool) -> Fate {
        Fate {
            round,
            pid: ProcessId(pid),
            crash,
        }
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
        assert_eq!(e.ledger().dropped_channel, 0);
        // 4 sends per round × 10 rounds.
        assert_eq!(e.ledger().sent, 40);
        // Everything sent before the last round was delivered.
        assert_eq!(e.ledger().delivered, 36);
        // The registry carries the ledger and the tally under their
        // rendered names: nine, and the relays' delivery cell per parity.
        let mut rendered = Counters::new();
        Renderer::default().render(Registry::Sim, &e.ledger(), e.tally(), &mut rendered);
        assert_eq!(rendered.len(), 9 + 2);
        assert!(rendered.iter().all(|(name, n)| e.counters().get(name) == n));
    }

    #[test]
    fn lossy_channel_drops_roughly_fraction() {
        let config = SimConfig::default()
            .with_seed(5)
            .with_channel(ChannelConfig::default().with_success_probability(0.5));
        let mut e = relay_engine(config, 10);
        e.run_rounds(100);
        let sent = e.ledger().sent;
        let dropped = e.ledger().dropped_channel;
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
        assert_eq!(e.ledger().bytes_sent, e.ledger().sent * 8);
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
            assert!(
                e.process(p).received.is_empty(),
                "{p} is crashed yet received"
            );
        }
    }

    #[test]
    fn messages_to_crashed_processes_drop() {
        let mut e = relay_engine(SimConfig::default(), 3);
        e.schedule_fate(fate(0, 1, true));
        e.run_rounds(4);
        assert!(e.ledger().dropped_crashed > 0);
        assert!(e.process(ProcessId(1)).received.is_empty());
    }

    #[test]
    fn recovery_resumes_execution() {
        let mut e = relay_engine(SimConfig::default(), 2);
        e.schedule_fate(fate(0, 1, true));
        e.run_rounds(3);
        assert!(e.process(ProcessId(1)).received.is_empty());
        e.schedule_fate(fate(3, 1, false));
        e.run_rounds(3);
        assert!(!e.process(ProcessId(1)).received.is_empty());
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
        let observed = e.ledger().dropped_observed;
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
            e.ledger()
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
        let total: usize = e.processes().map(|(_, p)| p.received.len()).sum();
        assert!(total > 0);
        // Every send is delivered or still in flight.
        assert_eq!(e.ledger().in_flight(), Some(e.in_flight() as u64));
    }

    /// The relay never draws, so no process stream is ever seeded: a
    /// hook materialises its stream when it asks for it, not before.
    #[test]
    fn a_population_that_never_draws_keeps_no_stream() {
        let mut e = relay_engine(SimConfig::default().with_seed(3), 6);
        e.run_rounds(8);
        assert_eq!(e.ledger().delivered, 42);
        assert_eq!(e.stripe.store.rng_resident(), 0);
    }

    /// The engine runs the caller's vector: neither building it nor
    /// taking it apart copies the population.
    #[test]
    fn the_engine_adopts_and_returns_the_callers_allocation() {
        let procs = da_core::testkit::Relay::ring(9, 3);
        let at = procs.as_ptr();
        let mut e = Engine::new(SimConfig::default(), procs);
        e.run_rounds(4);
        let procs = e.into_processes();
        assert_eq!((procs.as_ptr(), procs.len()), (at, 9));
    }

    /// Link latency is config input: a send slower than the ring spills,
    /// and one whose due tick saturates at `u64::MAX` stays in flight
    /// instead of wrapping into the past.
    #[test]
    fn slow_links_stay_in_flight() {
        let slow = |latency| {
            let channel = ChannelConfig::reliable().with_latency(Latency::Fixed(latency));
            relay_engine(SimConfig::default().with_channel(channel), 2)
        };
        for latency in [20_000_000, 1 << 40, u64::MAX] {
            let mut e = slow(latency);
            e.run_rounds(3);
            assert_eq!(e.ledger().sent, 6);
            assert_eq!(e.in_flight(), 6);
        }
        assert_eq!(slow(u64::MAX).run_until_quiescent(4), 4);
    }

    /// A protocol written purely against [`ExecProtocol`], checked here
    /// under the simulator.
    #[test]
    fn exec_protocol_runs_under_the_simulator() {
        struct Echo {
            heard: Vec<(ProcessId, u8)>,
        }
        impl ExecProtocol for Echo {
            type Msg = u8;

            fn on_start<X: Exec<Msg = u8>>(&mut self, ctx: &mut X) {
                if ctx.me() == ProcessId(0) {
                    ctx.send(ProcessId(1), 7);
                    ctx.bump("echo.pings");
                }
            }

            fn on_message<X: Exec<Msg = u8>>(&mut self, from: ProcessId, msg: u8, ctx: &mut X) {
                self.heard.push((from, msg));
                if msg > 0 {
                    ctx.send(from, msg - 1);
                }
                ctx.add("echo.bytes", 1);
            }
        }
        let procs = vec![Echo { heard: vec![] }, Echo { heard: vec![] }];
        let mut engine = Engine::new(SimConfig::default().with_seed(1), procs);
        engine.run_until_quiescent(32);
        // The byte ping-pongs 7 → 0: eight deliveries in total.
        assert_eq!(engine.counters().get("echo.bytes"), 8);
        assert_eq!(engine.counters().get("echo.pings"), 1);
        assert_eq!(engine.process(ProcessId(1)).heard.len(), 4);
        assert_eq!(engine.process(ProcessId(0)).heard.len(), 4);
    }

    #[test]
    fn ctx_exec_exposes_identity_time_and_rng() {
        struct Probe {
            ok: bool,
        }
        impl ExecProtocol for Probe {
            type Msg = ();
            fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), _c: &mut X) {}
            fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, ctx: &mut X) {
                use rand::Rng as _;
                let _draw: u64 = ctx.rng().gen();
                self.ok = ctx.round() == round && ctx.me() == ProcessId(0);
            }
        }
        let mut engine = Engine::new(SimConfig::default(), vec![Probe { ok: false }]);
        engine.run_rounds(3);
        assert!(engine.process(ProcessId(0)).ok);
    }

    #[test]
    fn partitions_sever_and_heal() {
        use da_core::network::{Partition, PartitionSchedule};
        // Relay ring over 3 processes with 2 on the island, so exactly
        // the 1→2 and 2→0 hops cross the cut. Split for rounds 2..5.
        let config = SimConfig::default().with_partitions(
            PartitionSchedule::none().with_partition(Partition::cut([ProcessId(2)], 2).heal_at(5)),
        );
        let mut e = relay_engine(config, 3);
        e.run_rounds(2);
        assert_eq!(e.ledger().dropped_partitioned, 0);
        e.run_rounds(3); // rounds 2..4: two cross-island sends severed per round
        assert_eq!(e.ledger().dropped_partitioned, 6);
        let before = e.process(ProcessId(2)).received.len();
        e.run_rounds(3);
        assert!(
            e.process(ProcessId(2)).received.len() > before,
            "traffic flows again after the heal"
        );
        // Every send is delivered, severed, or still in flight.
        assert_eq!(e.ledger().in_flight(), Some(e.in_flight() as u64));
    }
}

#[cfg(test)]
mod trace_engine_tests {
    use super::*;
    use da_core::trace::{TraceConfig, TraceVerdict};
    use da_core::{ChannelConfig, FailureModel};

    #[test]
    fn trace_off_allocates_no_recorder() {
        let e = relay_engine(SimConfig::default(), 3);
        assert!(e.trace_log().is_none());
    }

    /// How many of the log's events carry `verdict`.
    fn verdicts(log: &TraceLog, verdict: TraceVerdict) -> u64 {
        log.events.iter().filter(|e| e.verdict == verdict).count() as u64
    }

    /// An uncapped full trace holds one event per envelope verdict the
    /// ledger counts, all six of them: a lossy channel, a partition,
    /// churn and per-observer failures each supply one of the drops.
    #[test]
    fn full_trace_mirrors_the_counter_ledger() {
        use da_core::network::{Partition, PartitionSchedule};
        use TraceVerdict::*;
        let cut = Partition::cut([ProcessId(2)], 10).heal_at(20);
        let churn = FailureModel::Churn {
            crash_probability: 0.1,
            recover_probability: 0.1,
        };
        let cases = [
            (
                SimConfig::default()
                    .with_seed(5)
                    .with_channel(ChannelConfig::default().with_success_probability(0.5)),
                DroppedChannel,
            ),
            (
                SimConfig::default().with_partitions(PartitionSchedule::none().with_partition(cut)),
                DroppedPartitioned,
            ),
            (
                SimConfig::default().with_seed(9).with_failures(churn),
                DroppedCrashed,
            ),
            (
                SimConfig::default()
                    .with_seed(11)
                    .with_failures(FailureModel::PerObserver {
                        alive_fraction: 0.5,
                    }),
                DroppedObserved,
            ),
        ];
        for (config, drop) in cases {
            let mut e = relay_engine(config.with_trace(TraceConfig::full()), 10);
            e.run_rounds(50);
            let (log, ledger) = (e.trace_log().unwrap(), e.ledger());
            for verdict in [Sent, Delivered, DroppedChannel].into_iter().chain([
                DroppedPartitioned,
                DroppedCrashed,
                DroppedObserved,
            ]) {
                let traced = Some(verdicts(&log, verdict));
                assert_eq!(traced, ledger.count(verdict), "{drop} run: {verdict}");
            }
            assert!(ledger.count(drop) > Some(0), "the {drop} run dropped");
            // Every delivered message contributed one latency sample.
            let latency = log.histogram("delivery_latency_ticks").unwrap();
            assert_eq!(latency.count(), ledger.delivered);
            assert!(latency.max() >= 1, "reliable latency is ≥ 1 round");
            assert!(log.histogram("queue_depth").unwrap().count() == 50);
            assert_eq!(log.dropped_events, 0);
        }
    }

    #[test]
    fn counters_only_mode_skips_the_event_buffer() {
        let config = SimConfig::default().with_trace(TraceConfig::counters_only());
        let mut e = relay_engine(config, 4);
        e.run_rounds(10);
        let log = e.trace_log().unwrap();
        assert!(log.events.is_empty());
        assert_eq!(log.histogram("queue_depth").unwrap().count(), 10);
        assert_eq!(e.ledger().sent, 40);
    }

    #[test]
    fn capacity_bound_counts_overflow() {
        let config = SimConfig::default().with_trace(TraceConfig::full().with_capacity(8));
        let mut e = relay_engine(config, 4);
        e.run_rounds(10);
        let log = e.trace_log().unwrap();
        assert_eq!(log.events.len(), 8);
        // 40 sends and 36 deliveries: every event past the cap is counted.
        assert_eq!(log.events.len() as u64 + log.dropped_events, 76);
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
            verdicts(&log, TraceVerdict::Crashed),
            e.ledger().churn_crashes
        );
        assert_eq!(
            verdicts(&log, TraceVerdict::Recovered),
            e.ledger().churn_recoveries
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
    use da_core::{Exec, FailureModel};

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
        assert!(e.ledger().churn_crashes > 0);
        assert!(e.ledger().churn_recoveries > 0);
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
            (e.ledger(), e.alive().len())
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
        assert_eq!(e.ledger().churn_crashes, 0);
    }
}
