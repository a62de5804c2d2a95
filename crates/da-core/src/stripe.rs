//! One tick body for both substrates.
//!
//! A tick is the same sequence wherever it runs: the failure plan's
//! transitions (churn counters, lifecycle events, `on_recover`), the
//! first tick's `on_start`, a verdict per due envelope (destination
//! crashed / observed failed / delivered → `on_message`), `on_round`
//! for everyone alive — and under every hook the [`EnvelopeLedger`]
//! (sent, bytes, delivered, each drop, churn). A [`Stripe`] owns what
//! that sequence touches and runs it in three phases. The substrates
//! differ in where a send goes — the [`Outbound`] seam, implemented
//! once by the simulator (a `Strategy` fate on the engine RNG, into its
//! wheel) and once by the live transport's `FaultyRouter` — and in
//! where due envelopes come from, which stays with the caller: it owns
//! the wheel.
//!
//! The phase methods are `#[inline]`: they are the body of each
//! substrate's hot loop, and one out-of-line call there changes the code
//! generated around it. The context's `send` is `#[inline(always)]`, as
//! is every later hop that carries the message by value (each
//! `Outbound::send`, the wheel's `schedule`), so a send stores the
//! message its hook built exactly once. An out-of-line hop would read it
//! with one wide load right after the narrow stores that wrote it, which
//! the CPU cannot forward: a store-forwarding stall, an eighth of
//! `live_wave`'s time (ARCHITECTURE.md, "A send stores its message
//! once").

use crate::exec::{Exec, ExecProtocol};
use crate::ledger::EnvelopeLedger;
use crate::lifecycle::LifecycleController;
use crate::metrics::{Counters, Family, Histogram, Kind, Tally, TraceLog};
use crate::network::NetFate;
use crate::process::{ProcessId, ProcessStatus};
use crate::store::{ProcessStore, Slot, Streams};
use crate::trace::{TraceConfig, TraceEvent, TraceRecorder, TraceVerdict};
use crate::wheel::Envelope;
use crate::wire::WireSize;
use rand::rngs::SmallRng;

/// Where a send goes: decides the fate of one message on the network
/// and, when it survives, takes it into flight toward its due tick.
pub trait Outbound {
    /// The message type it carries.
    type Msg;

    /// Routes `msg`, sent by `from` to `to` during `tick`; a
    /// [`NetFate::Deliver`] message is in flight when this returns.
    fn send(&mut self, from: ProcessId, to: ProcessId, tick: u64, msg: Self::Msg) -> NetFate;
}

/// Aggregate summary of one executed tick, on either substrate: the
/// simulator's `Engine::step_round` and the pool's `Runtime::step_tick`
/// both return one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// The tick that was executed.
    pub tick: u64,
    /// Messages handed to the network during this tick (including ones
    /// the unreliable channel then lost).
    pub sent: u64,
    /// Messages handed to `on_message` during this tick.
    pub delivered: u64,
    /// Messages in flight at the end of this tick, due in a later one:
    /// every envelope the channel let through, from the moment its
    /// sender queued it until it is delivered or consumed at its due
    /// tick. On the pool this is the coordinator's ledger, so it equals
    /// the simulator's `Engine::in_flight()` after the same round
    /// whatever the workers' relative timing. (What the workers hold
    /// would not do: inside the drift window a receiver can report a
    /// tick before a faster peer's batch reaches it.)
    pub pending: u64,
}

impl TickReport {
    /// True when the tick neither delivered nor produced messages and
    /// none are in flight — the quiescence criterion.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.sent == 0 && self.delivered == 0 && self.pending == 0
    }
}

/// A stripe's flight-recorder state when tracing is on.
#[derive(Debug, Clone)]
pub struct StripeTrace {
    /// Every send, verdict and lifecycle transition of the stripe.
    pub recorder: TraceRecorder,
    /// Delivery tick minus send tick, per delivered envelope.
    pub delivery_latency: Histogram,
}

impl StripeTrace {
    /// A snapshot of what the stripe recorded: its events and dropped
    /// count, the `delivery_latency_ticks` histogram, then the
    /// substrate's own histograms in the order given.
    #[must_use]
    pub fn log(&self, extra: &[(&str, &Histogram)]) -> TraceLog {
        let mut log = TraceLog {
            events: self.recorder.events().to_vec(),
            dropped_events: self.recorder.dropped(),
            histograms: Vec::new(),
        };
        log.add_histogram("delivery_latency_ticks", &self.delivery_latency);
        for (name, h) in extra {
            log.add_histogram(name, h);
        }
        log
    }
}

/// What a stripe counts and records, kept together so that a hook's
/// context borrows it as one.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Counts by name: fixtures', and the simulator's rendered ones.
    pub counters: Counters,
    /// What the protocol counted, per group.
    pub tally: Tally,
    /// `None` when tracing is off: every trace hook is then one branch.
    pub trace: Option<StripeTrace>,
    /// Every envelope the stripe's processes sent or were due, by what
    /// became of it, and the churn transitions.
    pub envelopes: EnvelopeLedger,
}

impl Ledger {
    #[inline]
    fn record_send(&mut self, tick: u64, from: ProcessId, to: ProcessId, size: u64, fate: NetFate) {
        let envelopes = &mut self.envelopes;
        envelopes.sent += 1;
        envelopes.bytes_sent += size;
        let dropped = match fate {
            NetFate::Deliver { .. } => None,
            NetFate::Lost => {
                envelopes.dropped_channel += 1;
                Some(TraceVerdict::DroppedChannel)
            }
            NetFate::Severed => {
                envelopes.dropped_partitioned += 1;
                Some(TraceVerdict::DroppedPartitioned)
            }
        };
        if let Some(trace) = self.trace.as_mut() {
            let mut event = TraceEvent {
                tick,
                from,
                to,
                payload: size,
                verdict: TraceVerdict::Sent,
            };
            trace.recorder.record(event);
            // Send-time drops stamp the send tick; drops decided at
            // delivery time stamp the delivery tick instead.
            if let Some(verdict) = dropped {
                event.verdict = verdict;
                trace.recorder.record(event);
            }
        }
    }
}

/// The execution context of every protocol hook, on either substrate.
struct Ctx<'a, O> {
    me: ProcessId,
    tick: u64,
    /// Where the process's stream lives, empty until it first draws,
    /// and the streams it is then seeded in.
    slot: &'a mut Slot,
    streams: &'a mut Streams,
    ledger: &'a mut Ledger,
    out: &'a mut O,
}

impl<O: Outbound<Msg: WireSize>> Exec for Ctx<'_, O> {
    type Msg = O::Msg;

    fn me(&self) -> ProcessId {
        self.me
    }

    fn round(&self) -> u64 {
        self.tick
    }

    // Carries the message by value: out of line, its first load of the
    // message the hook just stored stalls on store forwarding.
    #[inline(always)]
    fn send(&mut self, to: ProcessId, msg: O::Msg) {
        let size = msg.wire_size() as u64;
        let fate = self.out.send(self.me, to, self.tick, msg);
        self.ledger.record_send(self.tick, self.me, to, size, fate);
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.streams.get(self.slot, self.me)
    }

    fn bump(&mut self, label: &str) {
        self.ledger.counters.bump(label);
    }

    fn count(&mut self, family: Family, kind: Kind, group: usize) {
        self.ledger.tally.count(family, kind, group);
    }

    fn add(&mut self, label: &str, delta: u64) {
        self.ledger.counters.add_named(label, delta);
    }
}

/// One stripe of processes and the tick body that drives them — the
/// whole population on the simulator, `pid ≡ worker mod stride` on a
/// live worker.
///
/// A tick is [`begin_tick`](Self::begin_tick), one
/// [`deliver`](Self::deliver) per envelope due, then
/// [`round_hooks`](Self::round_hooks). The fields are the substrate's to
/// read, and to adjust between ticks (inject into a process, flip a
/// status by hand, count what only it sees); the tick body alone
/// advances them.
#[derive(Debug, Clone)]
pub struct Stripe<P> {
    /// The processes and their RNG streams: slot `i` holds
    /// `lifecycle.pid_of(i)`.
    pub store: ProcessStore<P>,
    /// Their liveness under the failure plan.
    pub lifecycle: LifecycleController,
    /// Envelope ledger, protocol tally, counters and flight recorder.
    pub ledger: Ledger,
    /// The tick [`Stripe::begin_tick`] last opened.
    tick: u64,
    started: bool,
}

impl<P> Stripe<P>
where
    P: ExecProtocol,
    P::Msg: WireSize,
{
    /// A stripe over `store`, with one status in `lifecycle` per process.
    #[must_use]
    pub fn new(
        store: ProcessStore<P>,
        lifecycle: LifecycleController,
        trace: &TraceConfig,
    ) -> Self {
        debug_assert_eq!(store.len(), lifecycle.owned(), "one status per process");
        let trace = TraceRecorder::new(trace).map(|recorder| StripeTrace {
            recorder,
            delivery_latency: Histogram::new(),
        });
        Stripe {
            store,
            lifecycle,
            ledger: Ledger {
                counters: Counters::new(),
                tally: Tally::default(),
                trace,
                envelopes: EnvelopeLedger::default(),
            },
            tick: 0,
            started: false,
        }
    }

    /// Runs `f` on the process at `slot` under a context of its own.
    #[inline]
    fn hook<O: Outbound<Msg = P::Msg>>(
        &mut self,
        slot: usize,
        out: &mut O,
        f: impl FnOnce(&mut P, &mut Ctx<'_, O>),
    ) {
        let (procs, slots, streams) = self.store.hook_slices();
        let mut ctx = Ctx {
            me: self.lifecycle.pid_of(slot),
            tick: self.tick,
            slot: &mut slots[slot],
            streams,
            ledger: &mut self.ledger,
            out,
        };
        f(&mut procs[slot], &mut ctx);
    }

    /// Runs `f` on every alive process, in slot order, each under a
    /// context of its own. Processes, RNG slots and statuses are walked
    /// in lockstep, with no index to check, so a hook that does nothing
    /// compiles to no loop at all.
    #[inline]
    fn alive_hooks<O: Outbound<Msg = P::Msg>>(
        &mut self,
        out: &mut O,
        mut f: impl FnMut(&mut P, &mut Ctx<'_, O>),
    ) {
        let (procs, slots, streams) = self.store.hook_slices();
        let walk = procs.iter_mut().zip(slots).zip(self.lifecycle.statuses());
        for (local, ((process, slot), status)) in walk.enumerate() {
            if status.is_alive() {
                let mut ctx = Ctx {
                    me: self.lifecycle.pid_of(local),
                    tick: self.tick,
                    slot,
                    streams: &mut *streams,
                    ledger: &mut self.ledger,
                    out: &mut *out,
                };
                f(process, &mut ctx);
            }
        }
    }

    /// Opens `tick`: applies the failure plan's transitions (churn
    /// counters; lifecycle events, every `Crashed` in pid order, then
    /// every `Recovered`), runs `on_recover` for the processes that came
    /// back and, on the first tick ever, `on_start` for every process
    /// alive — all before any delivery.
    #[inline]
    pub fn begin_tick<O: Outbound<Msg = P::Msg>>(&mut self, tick: u64, out: &mut O) {
        self.tick = tick;

        self.lifecycle.begin_tick(tick);
        let transitions = self.lifecycle.transitions();
        self.ledger.envelopes.churn_crashes += transitions.churn_crashes;
        self.ledger.envelopes.churn_recoveries += transitions.churn_recoveries;
        if let Some(trace) = self.ledger.trace.as_mut() {
            for (slots, verdict) in [
                (&transitions.crashed, TraceVerdict::Crashed),
                (&transitions.recovered, TraceVerdict::Recovered),
            ] {
                for &slot in slots {
                    let pid = self.lifecycle.pid_of(slot);
                    trace
                        .recorder
                        .record(TraceEvent::lifecycle(tick, pid, verdict));
                }
            }
        }
        for i in 0..transitions.recovered.len() {
            let slot = self.lifecycle.transitions().recovered[i];
            self.hook(slot, out, |process, ctx| process.on_recover(ctx));
        }

        if !self.started {
            self.started = true;
            // Not the stillborn, nor anyone crashed at tick 0.
            self.alive_hooks(out, |process, ctx| process.on_start(ctx));
        }
    }

    /// Consumes one envelope due this tick: dropped when its destination
    /// is crashed, or when the per-observer model draws it as failed for
    /// this transmission; handed to `on_message` otherwise. Each verdict
    /// is counted and traced with the delivery tick — the moment the
    /// envelope's fate resolved.
    #[inline]
    pub fn deliver<O: Outbound<Msg = P::Msg>>(&mut self, envelope: Envelope<P::Msg>, out: &mut O) {
        let Envelope {
            from,
            to,
            sent_tick,
            msg,
            ..
        } = envelope;
        let slot = self.lifecycle.slot_of(to);
        let envelopes = &mut self.ledger.envelopes;
        let (verdict, count) = if !self.lifecycle.is_alive(slot) {
            (TraceVerdict::DroppedCrashed, &mut envelopes.dropped_crashed)
        } else if !self.lifecycle.observes_alive() {
            (
                TraceVerdict::DroppedObserved,
                &mut envelopes.dropped_observed,
            )
        } else {
            (TraceVerdict::Delivered, &mut envelopes.delivered)
        };
        *count += 1;
        let delivered = verdict == TraceVerdict::Delivered;
        if let Some(trace) = self.ledger.trace.as_mut() {
            trace.recorder.record(TraceEvent {
                tick: self.tick,
                from,
                to,
                payload: msg.wire_size() as u64,
                verdict,
            });
            if delivered {
                trace.delivery_latency.record(self.tick - sent_tick);
            }
        }
        if delivered {
            self.hook(slot, out, |process, ctx| {
                process.on_message(from, msg, ctx);
            });
        }
    }

    /// Runs `on_round` for every process alive, in pid order, after the
    /// tick's deliveries.
    #[inline]
    pub fn round_hooks<O: Outbound<Msg = P::Msg>>(&mut self, out: &mut O) {
        let tick = self.tick;
        self.alive_hooks(out, |process, ctx| process.on_round(tick, ctx));
    }

    /// True once the first tick has run its `on_start` hooks.
    #[must_use]
    pub fn started(&self) -> bool {
        self.started
    }

    /// Takes the stripe apart: its processes and their final statuses,
    /// both in slot order, in the allocations they lived in.
    pub fn into_parts(self) -> (Vec<P>, Vec<ProcessStatus>) {
        (self.store.into_processes(), self.lifecycle.into_statuses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureModel;
    use crate::seed::rng_for_process;
    use std::sync::Arc;

    /// Sends a byte to the next pid from `on_start` and on every round,
    /// and records which hooks ran.
    #[derive(Debug, Default)]
    struct Probe {
        started: bool,
        heard: Vec<(ProcessId, u8)>,
        rounds: Vec<u64>,
    }

    impl ExecProtocol for Probe {
        type Msg = u8;

        fn on_start<X: Exec<Msg = u8>>(&mut self, ctx: &mut X) {
            self.started = true;
            ctx.send(ProcessId(ctx.me().0 + 1), 0);
        }

        fn on_message<X: Exec<Msg = u8>>(&mut self, from: ProcessId, msg: u8, ctx: &mut X) {
            self.heard.push((from, msg));
            ctx.bump("probe.heard");
        }

        fn on_round<X: Exec<Msg = u8>>(&mut self, round: u64, ctx: &mut X) {
            assert_eq!(ctx.round(), round);
            self.rounds.push(round);
            ctx.send(ProcessId(ctx.me().0 + 1), 1);
        }
    }

    /// Counts sends; loses the ones addressed to p1, severs the ones
    /// addressed to p2.
    struct Recording(u64);

    impl Outbound for Recording {
        type Msg = u8;

        fn send(&mut self, _from: ProcessId, to: ProcessId, _tick: u64, _msg: u8) -> NetFate {
            self.0 += 1;
            match to.0 {
                1 => NetFate::Lost,
                2 => NetFate::Severed,
                _ => NetFate::Deliver { latency: 1 },
            }
        }
    }

    fn stripe(model: FailureModel, population: usize, seed: u64) -> Stripe<Probe> {
        let mut store = ProcessStore::new(seed);
        for _ in 0..population {
            store.push(Probe::default());
        }
        let plan = Arc::new(model.materialize(population, seed));
        let lifecycle = LifecycleController::new(plan, 0, 1, population);
        Stripe::new(store, lifecycle, &TraceConfig::full())
    }

    fn envelope(from: u32, to: u32) -> Envelope<u8> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            sent_tick: 0,
            due_tick: 1,
            msg: 9,
        }
    }

    fn last_event(stripe: &Stripe<Probe>) -> (u64, u32, u32, TraceVerdict) {
        let trace = stripe.ledger.trace.as_ref().expect("tracing is on");
        let e = trace.recorder.events().last().expect("an event");
        (e.tick, e.from.0, e.to.0, e.verdict)
    }

    #[test]
    fn a_tick_runs_start_deliveries_and_round_hooks_through_one_ledger() {
        let mut s = stripe(FailureModel::None, 3, 1);
        let mut out = Recording(0);
        s.begin_tick(0, &mut out);
        assert!(s.started() && s.store.iter().all(|p| p.started));
        // Three on_start sends and three on_round sends, each either
        // lost (→ p1), severed (→ p2) or queued (→ p3).
        s.round_hooks(&mut out);
        let ledger = s.ledger.envelopes;
        assert_eq!((out.0, ledger.sent, ledger.queued()), (6, 6, 2));
        assert_eq!(ledger.bytes_sent, 6);
        assert_eq!(ledger.dropped_channel, 2);
        assert_eq!(ledger.dropped_partitioned, 2);
        let verdicts = |v| {
            let events = s.ledger.trace.as_ref().unwrap().recorder.events();
            events.iter().filter(|e| e.verdict == v).count()
        };
        assert_eq!(verdicts(TraceVerdict::Sent), 6);
        assert_eq!(verdicts(TraceVerdict::DroppedChannel), 2);
        assert_eq!(last_event(&s), (0, 2, 3, TraceVerdict::Sent));

        // The next tick runs no on_start again, delivers under the
        // destination's own context, and counts on.
        s.begin_tick(1, &mut out);
        assert_eq!(out.0, 6, "on_start runs once");
        s.deliver(envelope(0, 2), &mut out);
        assert_eq!(s.store.get(2).heard, vec![(ProcessId(0), 9)]);
        assert_eq!(s.ledger.counters.get("probe.heard"), 1);
        assert_eq!(last_event(&s), (1, 0, 2, TraceVerdict::Delivered));
        let latency = &s.ledger.trace.as_ref().unwrap().delivery_latency;
        assert_eq!((latency.count(), latency.max()), (1, 1));
        assert_eq!(s.store.get(0).rounds, vec![0], "round hooks come last");
        s.round_hooks(&mut out);
        let ledger = s.ledger.envelopes;
        assert_eq!((ledger.delivered, ledger.sent), (1, 9));
    }

    #[test]
    fn stillborn_processes_never_start_and_their_mail_drops() {
        let model = FailureModel::Stillborn {
            alive_fraction: 0.5,
        };
        let mut s = stripe(model, 8, 3);
        let dead: Vec<usize> = (0..8).filter(|&i| !s.lifecycle.is_alive(i)).collect();
        assert_eq!(dead.len(), 4);
        let mut out = Recording(0);
        s.begin_tick(0, &mut out);
        s.round_hooks(&mut out);
        assert_eq!(out.0, 8, "only the four alive ones sent, twice each");
        for (i, p) in s.store.iter().enumerate() {
            assert_eq!(p.started, !dead.contains(&i), "process {i} started");
            assert_eq!(p.rounds.is_empty(), dead.contains(&i), "process {i} rounds");
        }

        s.begin_tick(1, &mut out);
        let to = dead[0] as u32;
        s.deliver(envelope(7, to), &mut out);
        s.round_hooks(&mut out);
        let ledger = s.ledger.envelopes;
        assert_eq!((ledger.delivered, ledger.dropped_crashed), (0, 1));
        assert!(s.store.get(dead[0]).heard.is_empty());
        let crashed = s.ledger.trace.as_ref().unwrap().recorder.events().iter();
        let crashed: Vec<_> = crashed
            .filter(|e| e.verdict == TraceVerdict::DroppedCrashed)
            .collect();
        assert_eq!(crashed.len(), 1);
        assert_eq!((crashed[0].tick, crashed[0].to.0), (1, to), "delivery tick");
    }

    #[test]
    fn observed_failed_destinations_drop_without_crashing_anyone() {
        let model = FailureModel::PerObserver {
            alive_fraction: 0.5,
        };
        let mut s = stripe(model, 2, 11);
        let mut out = Recording(0);
        s.begin_tick(0, &mut out);
        for _ in 0..400 {
            s.deliver(envelope(0, 1), &mut out);
        }
        s.round_hooks(&mut out);
        let ledger = s.ledger.envelopes;
        let observed = ledger.dropped_observed;
        assert!((140..260).contains(&observed), "observer drops {observed}");
        assert_eq!(ledger.delivered, 400 - observed);
        assert_eq!(s.store.get(1).heard.len() as u64, ledger.delivered);
        assert_eq!(s.lifecycle.alive_count(), 2);
        assert_eq!(ledger.dropped_crashed, 0);
    }

    /// A hook that never asks for its RNG leaves the slot empty, and the
    /// first draw — whenever it comes — is the head of the process's own
    /// stream.
    #[test]
    fn streams_materialise_on_the_first_draw_only() {
        use rand::Rng as _;

        let mut s = stripe(FailureModel::None, 3, 7);
        let mut out = Recording(0);
        for tick in 0..8 {
            s.begin_tick(tick, &mut out);
            s.deliver(envelope(0, 2), &mut out);
            s.round_hooks(&mut out);
        }
        assert_eq!(s.store.rng_resident(), 0, "Probe never draws");

        /// Draws once, in its third round.
        #[derive(Debug, Default)]
        struct LateDraw(Option<u64>);

        impl ExecProtocol for LateDraw {
            type Msg = u8;

            fn on_message<X: Exec<Msg = u8>>(&mut self, _from: ProcessId, _msg: u8, _ctx: &mut X) {}

            fn on_round<X: Exec<Msg = u8>>(&mut self, round: u64, ctx: &mut X) {
                if round == 2 && ctx.me() == ProcessId(1) {
                    self.0 = Some(ctx.rng().gen());
                }
            }
        }

        let seed = 11;
        let mut store = ProcessStore::new(seed);
        store.push(LateDraw::default());
        store.push(LateDraw::default());
        let plan = Arc::new(FailureModel::None.materialize(2, seed));
        let lifecycle = LifecycleController::new(plan, 0, 1, 2);
        let mut s = Stripe::new(store, lifecycle, &TraceConfig::off());
        for tick in 0..2 {
            s.begin_tick(tick, &mut out);
            s.round_hooks(&mut out);
        }
        assert_eq!(s.store.rng_resident(), 0);
        s.begin_tick(2, &mut out);
        s.round_hooks(&mut out);
        assert_eq!(s.store.rng_resident(), 1, "the one that drew");
        let head = rng_for_process(seed, ProcessId(1)).gen::<u64>();
        assert_eq!(s.store.get(1).0, Some(head));
        assert_eq!(s.store.get(0).0, None);
    }
}
