//! One worker thread of the pool: what it shares with the coordinator
//! ([`SchedulerState`], [`Control`], [`WorkerReport`], [`Telemetry`])
//! and the [`Worker`] loop itself — control drain, lane sweep,
//! watermark gate, one `da_core::Stripe` tick through its
//! [`FaultyRouter`], flush, report, park. The scheduling model is
//! described in [`crate::runtime`].
//!
//! A worker keeps no wheel. Its router holds what its processes sent
//! until the tick before it can fall due, then ships each (due tick,
//! destination) bucket whole as one lane batch. The receiving worker
//! keeps the batches it sweeps in one FIFO per producer — a producer
//! ships in due order, so a FIFO's front is its earliest — and at the
//! due tick delivers the front batches, producer by producer, straight
//! out of the buffer the sender filled.

use crate::transport::{EdgeInbox, EdgeWatermarks, FaultyRouter};
use da_core::wheel::Envelope;
use da_core::{
    CounterId, Counters, ExecProtocol, Histogram, ProcessId, ProcessStatus, Stripe, TickTally,
    TraceLog, WireSize,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;

/// The scheduler state shared by the coordinator and every worker: the
/// grant horizon and the publish watermarks.
#[derive(Debug)]
pub(super) struct SchedulerState {
    /// First tick the pool may NOT execute yet; workers run while their
    /// local clock is below it (and their watermark gate passes). The
    /// coordinator unparks every worker after each store (see
    /// [`Worker::park`]).
    pub(super) horizon: AtomicU64,
    /// Per-sender publish watermarks (see [`EdgeWatermarks`]).
    pub(super) marks: EdgeWatermarks,
}

/// Coordinator → worker commands. Every send is followed by an `unpark`
/// of the receiving worker, so a command reaches a worker blocked in
/// [`Worker::park`].
pub(super) enum Control<P> {
    /// Run a closure against one owned process (state injection /
    /// inspection between ticks).
    Apply {
        pid: ProcessId,
        f: Box<dyn FnOnce(&mut P) + Send>,
    },
    /// Reply with the worker's [`Telemetry`] — its trace too when
    /// `trace` is set.
    Read {
        trace: bool,
        reply: SyncSender<Telemetry>,
    },
    /// Drain down and return the owned processes and final telemetry.
    Stop,
}

/// What a worker hands the coordinator on a [`Control::Read`] and when
/// it is joined: a copy of its stripe's counters and, when asked for
/// and recorded, its trace. The coordinator folds these in worker-id
/// order; nothing a worker counts is shared with another thread.
pub(super) struct Telemetry {
    pub(super) counters: Counters,
    pub(super) trace: Option<TraceLog>,
}

/// What a stopped worker returns from its thread: the processes it
/// owned and their final liveness, both in slot order, and its final
/// [`Telemetry`] — boxed, because the slot for a thread's result is
/// allocated when it spawns.
pub(super) type Joined<P> = ((Vec<P>, Vec<ProcessStatus>), Box<Telemetry>);

/// The trace histograms only a pool samples, beside the stripe's own
/// recorder and delivery latency.
#[derive(Debug, Default)]
pub(super) struct PoolHistograms {
    /// Envelopes the worker holds for later ticks — its router's, not
    /// yet shipped, and the swept batches not yet due — sampled once per
    /// tick after its flush. The name is the delay wheel's, which held
    /// the receiving half before batches were delivered in place.
    pub(super) wheel_occupancy: Histogram,
    /// How many ticks this worker ran ahead of its slowest peer's
    /// published frontier, sampled once per tick.
    pub(super) watermark_lag: Histogram,
    /// Batches swept off the incoming SPSC lanes per tick (across all
    /// sweeps of that tick, pre-gate and final).
    pub(super) lane_depth: Histogram,
}

/// One worker's account of one executed tick, pushed to the coordinator
/// fire-and-forget and folded into a [`crate::TickReport`].
#[derive(Debug, Clone, Copy)]
pub(super) struct WorkerReport {
    pub(super) tick: u64,
    /// What the stripe sent and consumed. The coordinator's delivery
    /// ledger adds its `queued` (sends that survived the channel) and
    /// subtracts its `delivered` and `undeliverable` (consumed at the
    /// due tick: destination crashed, `rt.dropped_crashed`, or observed
    /// as failed, `rt.dropped_observed_failed`) and `dropped_closed` to
    /// know, exactly, whether anything is still in flight when a tick
    /// looks quiet.
    pub(super) tally: TickTally,
    pub(super) dropped_closed: u64,
    /// Furthest due tick of an envelope this worker holds after the tick,
    /// in its router or swept and not yet due (0 when none) — the only
    /// proof a held envelope gives. That envelope is in flight through
    /// the tick before it, so no tick until then is quiet, and the
    /// coordinator may grant through `due_horizon + 1` without risking a
    /// tick past the quiescent one. Held envelopes are due after `tick`,
    /// so that is never short of the `tick + 2` a loud tick proves.
    pub(super) due_horizon: u64,
}

impl WorkerReport {
    /// True when this worker's slice of the tick sent or delivered
    /// anything (a queued send is a send). Any loud report proves the
    /// whole tick non-quiet, which is what lets the coordinator grant
    /// the next tick before the slowest worker has reported.
    pub(super) fn is_loud(&self) -> bool {
        self.tally.sent > 0 || self.tally.delivered > 0
    }
}

/// One worker thread: owns a `da_core` [`Stripe`] (the processes
/// `pid ≡ id mod workers` with their RNG streams, their liveness under
/// the shared failure plan, its own metrics registry and flight recorder
/// — and the tick body that drives them), its [`EdgeInbox`] (the
/// consumer column of the lane matrix) with the batches swept off it,
/// and its outgoing [`FaultyRouter`] (wrapping its hub row, holding its
/// sends until they fall due); advances its local tick clock through the
/// shared horizon and watermark gates.
pub(super) struct Worker<P: ExecProtocol> {
    pub(super) id: usize,
    /// Counts and records without a lock: the registry and the recorder
    /// are this thread's alone, copied out only to answer a
    /// [`Control::Read`] and handed back at join.
    pub(super) stripe: Stripe<P>,
    pub(super) control: Receiver<Control<P>>,
    pub(super) inbox: EdgeInbox<P::Msg>,
    pub(super) faulty: FaultyRouter<P::Msg>,
    pub(super) reports: Sender<WorkerReport>,
    /// The two ledger counters only a pool has.
    pub(super) dropped_closed: CounterId,
    pub(super) dropped_shutdown: CounterId,
    /// Batches swept off the lanes and not yet delivered, one FIFO per
    /// producer lane. Each batch is one due tick's bucket of its
    /// producer's router, and a producer ships in due order, earliest
    /// first. A producer runs less than `lag` ticks ahead and ships `lag`
    /// ticks before the due tick, so a FIFO holds at most `2 × lag`
    /// batches.
    pub(super) arrived: Vec<VecDeque<Vec<Envelope<P::Msg>>>>,
    /// Batches swept off the lanes since the last tick finished; folded
    /// into the `lane_depth` histogram each tick.
    pub(super) swept: u64,
    /// The pool-side trace histograms — `None` when tracing is off,
    /// like the stripe's recorder.
    pub(super) trace: Option<PoolHistograms>,
    pub(super) sched: Arc<SchedulerState>,
    /// The latency floor `Runtime::spawn` derived — how far the local clock may
    /// run ahead of the slowest in-edge's publish watermark.
    pub(super) lag: u64,
    /// The next tick this worker will execute (its local clock).
    pub(super) next_tick: u64,
}

impl<P> Worker<P>
where
    P: ExecProtocol,
    P::Msg: WireSize,
{
    fn apply(&mut self, pid: ProcessId, f: Box<dyn FnOnce(&mut P) + Send>) {
        let slot = self.stripe.lifecycle.slot_of(pid);
        f(self.stripe.store.get_mut(slot));
    }

    /// Applies every control message already sitting in the channel
    /// without blocking. Returns `false` once a stop command is seen.
    /// Called from both waits (the watermark gate and `park`), and at
    /// the top of each tick so a control message sent between driver
    /// calls is applied before the next tick executes —
    /// `park` may return on a horizon re-check *without* draining
    /// control, so the main loop cannot rely on the park path having
    /// seen them. A stop seen here must NOT abort ticks the worker was
    /// already granted: the coordinator's run-ahead grant means every
    /// worker owes the pool the same final tick, and honouring stop
    /// early would make the executed-tick range (and so the trace tail)
    /// depend on message-arrival timing instead of on the grant.
    ///
    /// A read is answered from here too, so it needs no path of its own:
    /// it meets the worker parked between driver calls, where every
    /// granted tick has been executed and reported.
    fn drain_control(&mut self) -> bool {
        loop {
            match self.control.try_recv() {
                Ok(Control::Apply { pid, f }) => self.apply(pid, f),
                Ok(Control::Read { trace, reply }) => {
                    // A failed send means the reader gave up waiting.
                    let _ = reply.send(self.telemetry(trace));
                }
                Ok(Control::Stop) | Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    /// A copy of this worker's counters and, when `trace` is set and
    /// tracing is on, of what it recorded: the stripe's log with the
    /// pool's three histograms after its own.
    fn telemetry(&self, trace: bool) -> Telemetry {
        let log = match (&self.stripe.ledger.trace, &self.trace) {
            (Some(stripe), Some(pool)) if trace => Some(stripe.log(&[
                ("wheel_occupancy", &pool.wheel_occupancy),
                ("watermark_lag", &pool.watermark_lag),
                ("lane_depth", &pool.lane_depth),
            ])),
            _ => None,
        };
        Telemetry {
            counters: self.stripe.ledger.counters.clone(),
            trace: log,
        }
    }

    /// Moves every batch currently sitting on the incoming lanes, whole,
    /// onto its producer's FIFO. Cheap when the lanes are empty (one
    /// relaxed load per lane), so the main loop calls it both before the
    /// watermark gate and again inside `run_tick` once the gate opens.
    fn sweep_lanes(&mut self) {
        let arrived = &mut self.arrived;
        let batches = self.inbox.take_batches(|lane, batch| {
            debug_assert!(
                arrived[lane]
                    .back()
                    .is_none_or(|last| last[0].due_tick < batch[0].due_tick),
                "a producer ships one batch per due tick, in due order"
            );
            arrived[lane].push_back(batch);
        });
        self.swept += batches;
    }

    /// Envelopes this worker holds: its router's, for a later flush, and
    /// the swept batches not yet delivered.
    fn holding(&self) -> u64 {
        let arrived: usize = self.arrived.iter().flatten().map(Vec::len).sum();
        (self.faulty.wheel.len() + arrived) as u64
    }

    /// The furthest due tick of an envelope this worker holds, 0 when it
    /// holds none: its router's horizon, or a FIFO's last batch.
    fn due_horizon(&self) -> u64 {
        let arrived = self.arrived.iter().filter_map(VecDeque::back);
        let arrived = arrived.map(|batch| batch[0].due_tick).max();
        self.faulty.wheel.due_horizon().max(arrived).unwrap_or(0)
    }

    /// The worker main loop: execute every granted-and-gated tick, park
    /// when the horizon is exhausted, stop on command — after finishing
    /// any ticks already granted, so the stop point is deterministic —
    /// then hand back the processes and the final telemetry.
    pub(super) fn run(mut self) -> Joined<P> {
        let mut stopping = false;
        'main: loop {
            while self.next_tick < self.sched.horizon.load(Ordering::SeqCst) {
                let tick = self.next_tick;
                if !self.drain_control() {
                    stopping = true;
                }
                // Sweep the lanes before the watermark gate: frees lane
                // capacity for peers running ahead. Order-safe at any
                // sweep frequency — batches wait per producer lane, so
                // the delivery sequence never depends on *when* a batch
                // was swept.
                self.sweep_lanes();
                if !self.await_watermarks(tick) {
                    break 'main;
                }
                let report = self.run_tick(tick);
                self.next_tick = tick + 1;
                if self.reports.send(report).is_err() {
                    break 'main; // Coordinator is gone: shut down.
                }
            }
            if stopping || !self.park() {
                break 'main;
            }
        }
        self.account_shutdown_in_flight();
        let telemetry = Box::new(self.telemetry(true));
        (self.stripe.into_parts(), telemetry)
    }

    /// Spins (yielding) until every peer has published the watermarks
    /// tick `tick` needs: all batches that could still be due at `tick`
    /// must be in this worker's inbox before it drains. Returns `false`
    /// when a stop command arrives mid-wait, leaving `tick` unexecuted.
    /// A graceful shutdown never does that: it stops the pool between
    /// driver calls, when every granted tick has been reported. Only a
    /// coordinator dropped while unwinding from a panic inside a driver
    /// call (a dead or wedged peer) stops a worker here, and the tick it
    /// abandons was never going to be collected.
    fn await_watermarks(&mut self, tick: u64) -> bool {
        let need = (tick + 1).saturating_sub(self.lag);
        if need == 0 {
            return true; // The first `lag` ticks gate on nothing.
        }
        let mut spins = 0u32;
        while !self.sched.marks.all_published(self.id, need) {
            if !self.drain_control() {
                return false;
            }
            spins = spins.saturating_add(1);
            if spins < 32 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }

    /// Blocks until the coordinator extends the horizon (`true`) or
    /// stops the pool (`false`), applying control messages meanwhile.
    ///
    /// The coordinator unparks this thread after every horizon store
    /// and every control send, and an `unpark` that finds the thread
    /// running leaves a token that makes its next `park` return at
    /// once. Each iteration below re-reads the horizon and drains the
    /// channel before it blocks, so a store or a send landing anywhere
    /// between those checks and the `park` is seen on the next
    /// iteration; a stale token or a spurious return costs one more.
    ///
    /// Before blocking, the worker yields the CPU a bounded number of
    /// times re-checking the horizon: in the steady pipelined state the
    /// coordinator is usually about to extend it (it grants on every
    /// absorbed report), and a grant that lands during the yield window
    /// costs two atomic loads instead of a futex sleep and wake — the
    /// dominant per-tick overhead on oversubscribed hosts. A genuinely
    /// idle pool still blocks after the budget, so waiting between
    /// driver calls burns no CPU.
    fn park(&mut self) -> bool {
        for _ in 0..32 {
            if self.next_tick < self.sched.horizon.load(Ordering::SeqCst) {
                return true;
            }
            std::thread::yield_now();
        }
        loop {
            if self.next_tick < self.sched.horizon.load(Ordering::SeqCst) {
                return true;
            }
            if !self.drain_control() {
                return false;
            }
            std::thread::park();
        }
    }

    /// Messages still travelling when the pool stops (held by this
    /// worker's router for a later due tick, swept and not yet due, or
    /// still on an incoming lane) are accounted as `rt.dropped_shutdown`
    /// rather than silently vanishing — the live analogue of the
    /// simulator's in-flight queue being discarded.
    ///
    /// The drain is complete: Stop is only sent between driver calls,
    /// when every worker has executed and flushed every granted tick, so
    /// nothing can race onto the lanes after the sweep starts, and each
    /// in-flight envelope is counted exactly once, by one worker (it is
    /// in its sender's router, or in its receiver's FIFO or lanes).
    fn account_shutdown_in_flight(&mut self) {
        let in_flight = self.holding() + self.inbox.drain();
        self.faulty.wheel.discard_all();
        self.arrived.clear();
        if in_flight > 0 {
            let id = self.dropped_shutdown;
            self.stripe.ledger.counters.add(id, in_flight);
        }
    }

    /// One tick: the stripe's tick body — the failure plan's transitions
    /// (with `on_recover` for processes that came back) and the first
    /// tick's `on_start`, a verdict for every envelope of the batches
    /// due now, the round hooks for alive processes — with every send
    /// routed through the [`FaultyRouter`]; then ship the buckets that
    /// fall due `lag` ticks on and publish the watermark that lets
    /// receivers advance past this tick.
    fn run_tick(&mut self, tick: u64) -> WorkerReport {
        self.stripe.begin_tick(tick, &mut self.faulty);

        // Deliver this tick's dues. One final lane sweep takes every
        // batch the watermark gate guarantees has arrived; then each
        // producer's batches due now are delivered in producer-lane
        // order, each in its send order — a pure function of (tick,
        // from, to, occurrence), independent of sweep timing and of how
        // batches interleaved on the lanes.
        self.sweep_lanes();
        if let Some(trace) = self.trace.as_mut() {
            trace.lane_depth.record(self.swept);
        }
        self.swept = 0;
        for lane in 0..self.arrived.len() {
            while let Some(mut batch) = self.arrived[lane].pop_front() {
                if batch[0].due_tick > tick {
                    self.arrived[lane].push_front(batch);
                    break;
                }
                debug_assert!(
                    batch[0].due_tick == tick,
                    "due tick {} missed at local tick {tick}",
                    batch[0].due_tick
                );
                for env in batch.drain(..) {
                    self.stripe.deliver(env, &mut self.faulty);
                }
                self.inbox.recycle(lane, batch);
            }
        }

        let tally = self.stripe.round_hooks(&mut self.faulty);

        // Ship what falls due `lag` ticks on — no later send can join
        // those buckets — as one batch per destination worker, and only
        // then raise the watermark: a peer that observes it is
        // guaranteed to find the batches in its inbox.
        let flush = self.faulty.flush_through(tick + self.lag);
        if flush.dropped_closed > 0 {
            // Closed-inbox drops surface as a flush total, not per envelope.
            let id = self.dropped_closed;
            self.stripe.ledger.counters.add(id, flush.dropped_closed);
        }
        self.sched.marks.publish(self.id, tick + 1);
        // What the worker holds for later ticks: its router's later dues
        // and the swept batches not yet due — counted for the trace only.
        let holding = self.trace.is_some().then(|| self.holding());
        if let (Some(trace), Some(holding)) = (self.trace.as_mut(), holding) {
            trace.wheel_occupancy.record(holding);
            // How far this clock now runs ahead of the slowest in-edge's
            // published frontier (0 on a single-worker pool).
            let marks = &self.sched.marks;
            let lag = (0..marks.workers())
                .filter(|&peer| peer != self.id)
                .map(|peer| marks.published(peer))
                .min()
                .map_or(0, |slowest| (tick + 1).saturating_sub(slowest));
            trace.watermark_lag.record(lag);
        }

        WorkerReport {
            tick,
            tally,
            dropped_closed: flush.dropped_closed,
            due_horizon: self.due_horizon(),
        }
    }
}
