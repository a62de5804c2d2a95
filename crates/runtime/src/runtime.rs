//! The pool's coordinator: [`Runtime`] spawns the workers
//! ([`crate::worker`]), grants them ticks under the bounded-lag
//! scheduler, and folds their reports into [`TickReport`]s.
//!
//! ## Scheduling model
//!
//! PR 2's scheduler was a global barrier: the coordinator broadcast each
//! tick and every worker acked it before any worker could start the
//! next. That serialises the pool on two channel hops plus a coordinator
//! wake-up per tick, and a single slow worker gates every fast one even
//! when none of its output could matter yet.
//!
//! The bounded-lag scheduler replaces the barrier with two one-way
//! signals:
//!
//! * **Publish watermarks** ([`crate::EdgeWatermarks`]): after flushing
//!   tick `t` on every out-edge, a worker bumps its one atomic. A worker
//!   may execute tick `n` once every peer has published through tick
//!   `n − lag`, where `lag = RuntimeConfig::effective_lag()` — anything
//!   published later is due strictly after `n` (channel latency is at
//!   least `lag`), so no delivery can be missed and no rendezvous is
//!   needed.
//! * **A grant horizon** (one atomic): the coordinator publishes how far
//!   the pool may run, workers free-run up to it. `run_ticks` grants its
//!   whole budget upfront; `run_until_quiescent` grants tick `n + 1` as
//!   soon as tick `n` is *provably* not quiet (any worker reported
//!   activity, a wheel holds an envelope due later, or — when no failure
//!   model can consume an envelope undelivered — the delivery ledger
//!   shows messages still in flight), which keeps the pipeline full
//!   during dissemination yet never lets a worker execute a tick past
//!   the quiescent one.
//!
//! Workers report each executed tick on a shared channel (fire and
//! forget — no round trip); the coordinator folds those into the same
//! [`TickReport`] the barrier produced, so `step_tick` /
//! `run_until_quiescent` keep their exact external semantics: a message
//! sent at tick `n` is still processed at tick `n + k` for its sampled
//! latency `k`, and quiescence is still "nothing sent, delivered, or in
//! flight".

use crate::config::RuntimeConfig;
use crate::metrics::{ShardedCounters, TraceSink, WorkerTrace};
use crate::transport::{lane_matrix, EdgeWatermarks, FaultyRouter};
use crate::worker::{Control, SchedulerState, Worker, WorkerReport};
use da_core::process::ProcessIndexError;
use da_core::store::ProcessStore;
use da_core::wheel::DelayWheel;
use da_core::{
    Counters, ExecProtocol, HotIds, LifecycleController, ProcessId, ProcessStatus, Stripe,
    TraceLog, WireSize,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Aggregate summary of one executed tick — the live counterpart of
/// `da_simnet::RoundReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// The tick that was executed.
    pub tick: u64,
    /// Messages handed to the transport during this tick (including
    /// ones the unreliable channel then lost).
    pub sent: u64,
    /// Messages handed to `on_message` during this tick.
    pub delivered: u64,
    /// Messages parked in delay wheels, due in a later tick. With
    /// `max_lag > 1` an envelope can be in flight between a fast
    /// sender and a lagging receiver's wheel when the receiver reports,
    /// so this count may transiently miss it; quiescence detection does
    /// not rely on it (the coordinator keeps an exact ledger of
    /// queued − delivered envelopes).
    pub pending: u64,
}

impl TickReport {
    /// True when the tick neither delivered nor produced nor holds
    /// pending messages — the quiescence criterion.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.sent == 0 && self.delivered == 0 && self.pending == 0
    }
}

/// Partially aggregated reports for one tick, while the coordinator
/// waits for the rest of the pool to reach it.
#[derive(Debug, Default, Clone, Copy)]
struct PartialTick {
    reports: usize,
    sent: u64,
    queued: u64,
    delivered: u64,
    dropped_closed: u64,
    undeliverable: u64,
    pending: u64,
    loud: bool,
}

impl PartialTick {
    fn absorb(&mut self, r: WorkerReport) {
        self.reports += 1;
        self.sent += r.sent;
        self.queued += r.queued;
        self.delivered += r.delivered;
        self.dropped_closed += r.dropped_closed;
        self.undeliverable += r.undeliverable;
        self.pending += r.pending;
        self.loud |= r.is_loud();
    }
}

/// The live runtime: a pool of worker threads executing
/// [`ExecProtocol`] processes as actors under a bounded-lag tick
/// scheduler (per-sender publish watermarks instead of a global barrier),
/// with the shared `da_core` channel fault model applied by the
/// transport.
///
/// The API mirrors `da_simnet::Engine` where the concepts coincide
/// (`step_tick`/`run_ticks`/`run_until_quiescent`, `counters`), and
/// replaces direct process access with [`Runtime::with_process_mut`]
/// (processes live on worker threads) plus [`Runtime::shutdown`] (the
/// graceful path that joins the pool and returns them).
///
/// ```
/// use da_runtime::{Runtime, RuntimeConfig};
/// use damulticast::{ParamMap, StaticNetwork};
///
/// let net = StaticNetwork::linear(&[3, 9], ParamMap::default(), 1).unwrap();
/// let leaf = net.groups()[1].members[0];
/// let config = RuntimeConfig::default().with_workers(2).with_seed(1);
/// let mut rt = Runtime::spawn(config, net.into_processes());
///
/// let id = rt.with_process_mut(leaf, |p| p.publish("tick"));
/// rt.run_until_quiescent(48);
///
/// let out = rt.shutdown();
/// assert!(out.processes.iter().filter(|p| p.has_delivered(id)).count() > 1);
/// ```
pub struct Runtime<P: ExecProtocol> {
    controls: Vec<Sender<Control<P>>>,
    reports: Receiver<WorkerReport>,
    handles: Vec<JoinHandle<Vec<(ProcessId, P, ProcessStatus)>>>,
    counters: Arc<ShardedCounters>,
    /// Shared flight-recorder sink — `None` when tracing is off.
    trace: Option<Arc<TraceSink>>,
    sched: Arc<SchedulerState>,
    population: usize,
    /// The next tick to hand the caller (every tick below it is
    /// finalized: all workers reported it).
    tick: u64,
    /// Coordinator-side mirror of the shared horizon.
    granted: u64,
    /// Reports for granted-but-not-yet-finalized ticks.
    backlog: BTreeMap<u64, PartialTick>,
    /// Envelopes queued on the transport and not yet delivered (or
    /// dropped on a closed inbox) as of the finalized frontier — the
    /// exact in-flight ledger behind quiescence detection.
    in_flight: u64,
    /// True when an envelope in flight can only end delivered: the
    /// failure plan never crashes a process and never fails an
    /// observation. Only then does a non-zero ledger prove the tick its
    /// envelopes fall due in loud.
    in_flight_means_loud: bool,
    tick_timeout: Duration,
}

/// What a graceful [`Runtime::shutdown`] leaves behind.
#[derive(Debug)]
pub struct Shutdown<P> {
    /// Every protocol instance, in pid order — the live counterpart of
    /// `Engine::into_processes`.
    pub processes: Vec<P>,
    /// Final liveness of every process under the failure plan, in pid
    /// order — the live counterpart of `Engine::status`.
    pub statuses: Vec<ProcessStatus>,
    /// Final merged metrics snapshot. Messages still in flight when the
    /// pool stopped (possible under latency models above one tick) are
    /// counted under `rt.dropped_shutdown`.
    pub counters: Counters,
    /// Merged flight-recorder log (events across all workers, verdict
    /// counts, `delivery_latency_ticks` / `wheel_occupancy` /
    /// `watermark_lag` histograms) — `None` when tracing was off.
    /// Canonicalize the events before comparing against another
    /// substrate's stream.
    pub trace: Option<TraceLog>,
}

/// Ring slots of each worker's delay wheel: the worst due-tick distance
/// an envelope can arrive with — a peer running `lag` ahead sends at most
/// `lag` ticks into the future, plus the network's latency ceiling (+1
/// because the window includes the current tick). Config input: bound
/// the ring it sizes, as `Engine::new` does; slower sends spill.
fn wheel_capacity(config: &RuntimeConfig) -> usize {
    let max_latency = config.faults.network.max_latency();
    max_latency.saturating_add(config.effective_lag()).min(1024) as usize + 1
}

impl<P> Runtime<P>
where
    P: ExecProtocol + Send + 'static,
    P::Msg: WireSize + Send + 'static,
{
    /// Spawns the worker pool over `processes` (process `i` gets
    /// `ProcessId(i)`, as under the simulator) and distributes them
    /// round-robin across workers.
    ///
    /// # Panics
    ///
    /// Panics when the OS refuses to spawn a worker thread, or when the
    /// population exceeds the `u32` process-id space (use
    /// [`Runtime::try_spawn`] to get the latter as a typed error).
    #[must_use]
    pub fn spawn(config: RuntimeConfig, processes: Vec<P>) -> Self {
        Self::try_spawn(config, processes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Runtime::spawn`]: validates the population
    /// against the `u32` process-id space once, here at the spawn
    /// boundary, so an oversized configuration comes back as a typed
    /// [`ProcessIndexError`] instead of a panic deep in striping.
    ///
    /// # Panics
    ///
    /// Panics when the OS refuses to spawn a worker thread.
    pub fn try_spawn(config: RuntimeConfig, processes: Vec<P>) -> Result<Self, ProcessIndexError> {
        let population = processes.len();
        if population > 0 {
            // Every pid the pool will ever mint is below the population,
            // so this single check covers all of striping.
            ProcessId::try_from_index(population - 1)?;
        }
        let workers = config.effective_workers(population);

        // Lane capacity: the watermark gate bounds any (producer,
        // consumer) lane at `lag + 1` unswept batches (a producer at
        // tick `p` requires the consumer to have published `p + 1 -
        // lag`, so `p - c <= lag`; one batch per producer tick on a
        // lane), so `lag + 2` never blocks in steady state.
        let lane_capacity = usize::try_from(config.effective_lag())
            .unwrap_or(usize::MAX)
            .saturating_add(2);
        let (hubs, inbox_rxs) = lane_matrix::<P::Msg>(workers, lane_capacity);
        let counters = Arc::new(ShardedCounters::new(workers));
        let trace_sink = config
            .trace
            .is_enabled()
            .then(|| Arc::new(TraceSink::new(workers, &config.trace)));
        let sched = Arc::new(SchedulerState {
            horizon: AtomicU64::new(0),
            marks: EdgeWatermarks::new(workers),
        });
        let (report_tx, report_rx) = mpsc::channel();

        // One materialisation of the failure plan, shared by every
        // worker's LifecycleController: same seed, same fates — and the
        // same fates the simulator would draw.
        let plan = Arc::new(config.faults.failure.materialize(population, config.seed));

        // Stripe processes across per-worker stores: a dense slab per
        // stripe, RNG streams derived lazily on first draw (the seed is
        // pure in `(master, pid)`, so nothing is precomputed here).
        let stripe_capacity = population.div_ceil(workers.max(1));
        let mut stores: Vec<ProcessStore<P>> = (0..workers)
            .map(|_| ProcessStore::with_capacity(config.seed, stripe_capacity))
            .collect();
        for (i, p) in processes.into_iter().enumerate() {
            stores[i % workers].push(p);
        }

        let mut controls = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (id, ((store, inbox), hub)) in stores.into_iter().zip(inbox_rxs).zip(hubs).enumerate() {
            let (control_tx, control_rx) = mpsc::channel();
            // Registration order is part of the snapshot format: the
            // pool's two counters sit where they always did.
            let mut local = Counters::new();
            let sent = local.register("rt.sent");
            let bytes_sent = local.register("rt.bytes_sent");
            let delivered = local.register("rt.delivered");
            let dropped_channel = local.register("rt.dropped_channel");
            let dropped_partitioned = local.register("rt.dropped_partitioned");
            let dropped_closed = local.register("rt.dropped_closed");
            let dropped_shutdown = local.register("rt.dropped_shutdown");
            let ids = HotIds {
                sent,
                bytes_sent,
                delivered,
                dropped_channel,
                dropped_partitioned,
                dropped_crashed: local.register("rt.dropped_crashed"),
                dropped_observed: local.register("rt.dropped_observed_failed"),
                churn_crashes: local.register("rt.churn_crashes"),
                churn_recoveries: local.register("rt.churn_recoveries"),
            };
            let lifecycle = LifecycleController::new(Arc::clone(&plan), id, workers, store.len());
            let worker = Worker {
                id,
                stripe: Stripe::new(store, lifecycle, local, ids, &config.trace),
                control: control_rx,
                inbox,
                faulty: FaultyRouter::new(hub, config.faults.network.clone(), config.seed),
                reports: report_tx.clone(),
                shards: Arc::clone(&counters),
                dropped_closed,
                dropped_shutdown,
                wheel: DelayWheel::with_capacity(wheel_capacity(&config), workers),
                due_buf: Vec::new(),
                swept: 0,
                trace: trace_sink
                    .as_ref()
                    .and_then(|sink| WorkerTrace::new(&config.trace, Arc::clone(sink))),
                sched: Arc::clone(&sched),
                lag: config.effective_lag(),
                next_tick: 0,
            };
            let handle = std::thread::Builder::new()
                .name(format!("da-runtime-{id}"))
                .spawn(move || worker.run())
                .expect("failed to spawn a runtime worker");
            controls.push(control_tx);
            handles.push(handle);
        }

        Ok(Runtime {
            controls,
            reports: report_rx,
            handles,
            counters,
            trace: trace_sink,
            sched,
            population,
            tick: 0,
            granted: 0,
            backlog: BTreeMap::new(),
            in_flight: 0,
            in_flight_means_loud: plan.is_inert(),
            tick_timeout: config.tick_timeout(),
        })
    }

    /// Number of processes hosted by the pool.
    #[must_use]
    pub fn population(&self) -> usize {
        self.population
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.controls.len()
    }

    /// The next tick to execute.
    #[must_use]
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// Extends the grant horizon, then unparks every worker: one
    /// blocked in `Worker::park` re-reads the horizon, one still running
    /// keeps the token and re-reads it instead of blocking. Monotonic
    /// and idempotent.
    fn grant(&mut self, horizon: u64) {
        if horizon <= self.granted {
            return;
        }
        self.granted = horizon;
        self.sched.horizon.store(horizon, Ordering::SeqCst);
        for handle in &self.handles {
            handle.thread().unpark();
        }
    }

    /// Blocks until every worker has reported `tick`, folding reports
    /// into the backlog as they arrive, then finalizes the tick: folds
    /// it out of the backlog, settles the in-flight ledger, and returns
    /// the aggregate. `lookahead_cap`, when set, lets the collector
    /// turn every absorbed report into a grant (capped): a loud tick
    /// `u` proves horizon `u + 2` safe, and a wheel holding an envelope
    /// due at `d` proves horizon `d + 1` safe — which is how
    /// `run_until_quiescent` keeps workers up to a full latency window
    /// ahead of report collection without ever overshooting the
    /// quiescent tick.
    ///
    /// The wait polls in short slices so a worker that *died* (panicked
    /// out of its thread) is diagnosed promptly instead of after the
    /// full tick timeout — with no per-tick coordinator→worker send
    /// left to fail fast, the join handles are the only death signal.
    ///
    /// # Panics
    ///
    /// Panics when a worker has died, or fails to report within the
    /// tick timeout.
    fn collect_tick(&mut self, tick: u64, lookahead_cap: Option<u64>) -> TickReport {
        let workers = self.controls.len();
        let deadline = std::time::Instant::now() + self.tick_timeout;
        const DEATH_POLL: Duration = Duration::from_millis(100);
        loop {
            if let Some(cap) = lookahead_cap {
                if self.backlog.get(&tick).is_some_and(|t| t.loud) {
                    self.grant((tick + 2).min(cap));
                }
            }
            if self.backlog.get(&tick).map(|t| t.reports) == Some(workers) {
                break;
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match self.reports.recv_timeout(remaining.min(DEATH_POLL)) {
                Ok(report) => {
                    if let Some(cap) = lookahead_cap {
                        // Each report is its own non-quiescence proof,
                        // whatever tick it is for: a loud tick `u` puts
                        // the quiescent tick at `u + 1` or later
                        // (horizon `u + 2` is safe), and a parked
                        // envelope due at `d` keeps every tick before
                        // `d` loud via `pending > 0` (horizon `d + 1`
                        // is safe). Granting here — not just when the
                        // collected tick finalizes — lets workers run
                        // multi-tick-latency windows without parking
                        // once per tick.
                        let mut proof = if report.is_loud() { report.tick + 2 } else { 0 };
                        if report.due_horizon > 0 {
                            proof = proof.max(report.due_horizon + 1);
                        }
                        if proof > 0 {
                            self.grant(proof.min(cap));
                        }
                    }
                    self.backlog.entry(report.tick).or_default().absorb(report);
                }
                Err(e) => {
                    if let Some(w) = self.handles.iter().position(JoinHandle::is_finished) {
                        // The thread is gone but its tick never arrived:
                        // it panicked (a clean stop always reports first).
                        panic!("runtime worker {w} died before acking tick {tick}");
                    }
                    assert!(
                        remaining > DEATH_POLL,
                        "worker failed to ack tick {tick}: {e}"
                    );
                }
            }
        }
        let agg = self.backlog.remove(&tick).expect("tick was just finalized");
        self.in_flight = (self.in_flight + agg.queued)
            .checked_sub(agg.delivered + agg.dropped_closed + agg.undeliverable)
            .expect("delivery ledger went negative");
        TickReport {
            tick,
            sent: agg.sent,
            delivered: agg.delivered,
            pending: agg.pending,
        }
    }

    /// Executes one tick across the pool and aggregates the workers'
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics when a worker has died or fails to report within the
    /// configured tick timeout.
    pub fn step_tick(&mut self) -> TickReport {
        let tick = self.tick;
        self.grant(tick + 1);
        let report = self.collect_tick(tick, None);
        self.tick += 1;
        report
    }

    /// Runs exactly `ticks` ticks and returns their reports. The whole
    /// budget is granted upfront, so workers free-run through it gated
    /// only by the watermark lag while this call collects the reports.
    pub fn run_ticks(&mut self, ticks: u64) -> Vec<TickReport> {
        let first = self.tick;
        self.grant(first + ticks);
        (0..ticks)
            .map(|i| {
                let report = self.collect_tick(first + i, None);
                self.tick += 1;
                report
            })
            .collect()
    }

    /// Runs until a tick is globally quiet (nothing sent, delivered, or
    /// still in flight) or `max_ticks` have executed. Returns the number
    /// of ticks executed.
    ///
    /// Ticks are granted as their predecessor is *proven* non-quiet (a
    /// loud worker report, an envelope parked for a later tick, or —
    /// under a failure model that cannot consume an envelope undelivered
    /// — queued envelopes still on the coordinator's ledger), so the
    /// pool pipelines through active dissemination but never executes a
    /// tick past the quiescent one — exactly the barrier scheduler's
    /// observable behaviour. On return, as after every driver call, every
    /// granted tick has been executed and reported.
    pub fn run_until_quiescent(&mut self, max_ticks: u64) -> u64 {
        let first = self.tick;
        let cap = first + max_ticks;
        for executed in 0..max_ticks {
            let tick = first + executed;
            self.grant(tick + 1);
            if self.in_flight > 0 && self.in_flight_means_loud {
                // Something is still travelling and will be delivered
                // (or stay parked) at `tick`, so `tick` cannot be the
                // quiescent one: let the pool run one tick ahead. An
                // envelope a crashed or observed-failed destination may
                // consume proves nothing — `tick` can then be quiet.
                self.grant((tick + 2).min(cap));
            }
            let report = self.collect_tick(tick, Some(cap));
            self.tick += 1;
            if report.is_quiet() && self.in_flight == 0 {
                return executed + 1;
            }
        }
        max_ticks
    }

    /// Runs a closure against the process `pid` on its worker thread and
    /// returns the result — the live substitute for
    /// `Engine::process_mut` (e.g. to inject a publication between
    /// ticks).
    ///
    /// # Panics
    ///
    /// Panics when `pid` is out of range or its worker has died.
    pub fn with_process_mut<R, F>(&mut self, pid: ProcessId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut P) -> R + Send + 'static,
    {
        assert!(
            pid.index() < self.population,
            "{pid} out of range for population {}",
            self.population
        );
        let worker = pid.index() % self.controls.len();
        let (tx, rx) = mpsc::sync_channel(1);
        let wrapped: Box<dyn FnOnce(&mut P) + Send> = Box::new(move |p| {
            let _ = tx.send(f(p));
        });
        self.send_control(worker, Control::Apply { pid, f: wrapped })
            .unwrap_or_else(|_| panic!("runtime worker for {pid} terminated"));
        rx.recv().expect("runtime worker dropped an apply")
    }

    /// Fire-and-forget variant of [`Runtime::with_process_mut`]: applies
    /// the closure to `pid` on its worker thread without a reply channel
    /// or a blocking round-trip — one boxed closure is the only
    /// allocation on the injection path. Workers drain their control
    /// queue at the top of every tick, so an injection sent between
    /// driver calls is applied before the next tick that worker
    /// executes; use [`Runtime::with_process_mut`] when the caller needs
    /// a result (or a completion barrier) back.
    ///
    /// # Panics
    ///
    /// Panics when `pid` is out of range or its worker has died.
    pub fn inject<F>(&mut self, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut P) + Send + 'static,
    {
        assert!(
            pid.index() < self.population,
            "{pid} out of range for population {}",
            self.population
        );
        let worker = pid.index() % self.controls.len();
        let f = Box::new(f);
        self.send_control(worker, Control::Apply { pid, f })
            .unwrap_or_else(|_| panic!("runtime worker for {pid} terminated"));
    }

    /// Merged metrics snapshot across all worker shards, each as of that
    /// worker's most recently completed tick (exact whenever the pool is
    /// idle between driver calls).
    #[must_use]
    pub fn counters(&self) -> Counters {
        self.counters.merged()
    }

    /// Merged flight-recorder snapshot across all worker shards, each as
    /// of that worker's most recent tick-boundary publish (exact
    /// whenever the pool is idle between driver calls) — `None` when
    /// tracing is off. The live twin of `Engine::trace_log`.
    #[must_use]
    pub fn trace_log(&self) -> Option<TraceLog> {
        self.trace.as_ref().map(|sink| sink.merged())
    }

    /// Graceful shutdown: stops every worker, joins the pool, and
    /// returns the protocol instances (pid order) with the final metrics.
    /// In-flight messages (delay wheels, undrained inboxes) are counted
    /// as `rt.dropped_shutdown` — never silently lost, never waited for.
    ///
    /// # Panics
    ///
    /// Panics when a worker thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> Shutdown<P> {
        // Every driver call returns with its grants used up, so Stop
        // finds each worker past the same final tick — none waiting at
        // the watermark gate for a tick the others will never publish.
        debug_assert_eq!(
            self.granted, self.tick,
            "a granted tick was never collected"
        );
        self.stop_all();
        let mut tagged: Vec<(ProcessId, P, ProcessStatus)> = self
            .handles
            .drain(..)
            .flat_map(|h| h.join().expect("runtime worker panicked"))
            .collect();
        tagged.sort_by_key(|(pid, _, _)| *pid);
        let mut processes = Vec::with_capacity(tagged.len());
        let mut statuses = Vec::with_capacity(tagged.len());
        for (_, p, status) in tagged {
            processes.push(p);
            statuses.push(status);
        }
        Shutdown {
            processes,
            statuses,
            counters: self.counters.merged(),
            trace: self.trace.as_ref().map(|sink| sink.merged()),
        }
    }
}

impl<P: ExecProtocol> Runtime<P> {
    /// The only place a control message is sent: the send is followed
    /// by an unpark, so it reaches a worker blocked in `Worker::park`.
    fn send_control(&self, worker: usize, msg: Control<P>) -> Result<(), SendError<Control<P>>> {
        let sent = self.controls[worker].send(msg);
        self.handles[worker].thread().unpark();
        sent
    }

    /// Tells every worker not yet joined to stop.
    fn stop_all(&self) {
        for worker in 0..self.handles.len() {
            let _ = self.send_control(worker, Control::Stop);
        }
    }
}

/// Dropping the runtime without [`Runtime::shutdown`] still stops and
/// joins every worker (discarding the processes), so tests and callers
/// can never leak a pool.
impl<P: ExecProtocol> Drop for Runtime<P> {
    fn drop(&mut self) {
        self.stop_all();
        if std::thread::panicking() {
            // Reached while unwinding — typically from the tick watchdog
            // reporting a wedged worker. That worker can never ack Stop,
            // so joining here would turn the diagnostic panic back into
            // the very hang it exists to prevent. Leave the pool to die
            // with the process.
            return;
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::channel::{ChannelConfig, Latency};
    use da_core::Exec;

    /// Every process sends one token to the next pid each tick and
    /// records the tick of each receipt.
    struct Relay {
        population: u32,
        received: Vec<u64>,
    }

    #[derive(Clone, Debug)]
    struct Token {
        sent_at: u64,
    }
    impl WireSize for Token {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl ExecProtocol for Relay {
        type Msg = Token;

        fn on_message<X: Exec<Msg = Token>>(&mut self, _from: ProcessId, msg: Token, ctx: &mut X) {
            assert!(
                msg.sent_at < ctx.round(),
                "deliveries are strictly later than their send tick"
            );
            self.received.push(ctx.round());
        }

        fn on_round<X: Exec<Msg = Token>>(&mut self, round: u64, ctx: &mut X) {
            if round < 5 {
                let next = ProcessId((ctx.me().0 + 1) % self.population);
                ctx.send(next, Token { sent_at: round });
            }
        }
    }

    fn relay_procs(n: u32) -> Vec<Relay> {
        (0..n)
            .map(|_| Relay {
                population: n,
                received: Vec::new(),
            })
            .collect()
    }

    fn relay_runtime(n: u32, workers: usize) -> Runtime<Relay> {
        Runtime::spawn(
            RuntimeConfig::default().with_workers(workers).with_seed(1),
            relay_procs(n),
        )
    }

    #[test]
    fn messages_delivered_exactly_next_tick() {
        let mut rt = relay_runtime(8, 3);
        let r0 = rt.step_tick();
        assert_eq!(r0.sent, 8);
        assert_eq!(r0.delivered, 0, "nothing in flight during tick 0");
        let r1 = rt.step_tick();
        assert_eq!(r1.delivered, 8);
        let out = rt.shutdown();
        // The on_message assertion above checked per-delivery latency.
        assert_eq!(out.counters.get("rt.delivered"), 8);
    }

    #[test]
    fn quiescence_detected_and_counts_balance() {
        let mut rt = relay_runtime(10, 4);
        let executed = rt.run_until_quiescent(64);
        assert!(executed < 64, "relay goes quiet after tick 5");
        let out = rt.shutdown();
        // 10 processes × ticks 0..5 = 50 sends, all delivered.
        assert_eq!(out.counters.get("rt.sent"), 50);
        assert_eq!(out.counters.get("rt.delivered"), 50);
        assert_eq!(out.counters.get("rt.bytes_sent"), 400);
        assert_eq!(out.counters.get("rt.dropped_channel"), 0);
        assert_eq!(out.counters.get("rt.dropped_shutdown"), 0);
        let total: usize = out.processes.iter().map(|p| p.received.len()).sum();
        assert_eq!(total, 50);
    }

    /// The quiescent tick is never overshot: no worker executes a round
    /// hook past the tick `run_until_quiescent` reports, however far the
    /// pipelined grants ran. A protocol that would send again *after*
    /// the quiet tick must not get the chance on either substrate.
    #[test]
    fn quiescence_never_overshoots() {
        struct Sleeper {
            rounds_seen: u64,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl WireSize for M {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl ExecProtocol for Sleeper {
            type Msg = M;
            fn on_message<X: Exec<Msg = M>>(&mut self, _f: ProcessId, _m: M, _c: &mut X) {}
            fn on_round<X: Exec<Msg = M>>(&mut self, round: u64, ctx: &mut X) {
                self.rounds_seen = round + 1;
                // Would wake the pool again — but quiescence at tick 0
                // must stop the run long before.
                if round == 30 {
                    ctx.send(ctx.me(), M);
                }
            }
        }
        let procs = (0..6).map(|_| Sleeper { rounds_seen: 0 }).collect();
        let mut rt = Runtime::spawn(RuntimeConfig::default().with_workers(3).with_seed(1), procs);
        let executed = rt.run_until_quiescent(64);
        assert_eq!(executed, 1, "tick 0 is already quiet");
        let out = rt.shutdown();
        for p in &out.processes {
            assert_eq!(p.rounds_seen, 1, "no hook ran past the quiet tick");
        }
        assert_eq!(out.counters.get("rt.sent"), 0);
    }

    #[test]
    fn shutdown_returns_processes_in_pid_order() {
        struct Tag(usize);
        #[derive(Clone, Debug)]
        struct Never;
        impl WireSize for Never {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl ExecProtocol for Tag {
            type Msg = Never;
            fn on_message<X: Exec<Msg = Never>>(&mut self, _f: ProcessId, _m: Never, _c: &mut X) {}
        }
        let procs = (0..23).map(Tag).collect();
        let mut rt = Runtime::spawn(RuntimeConfig::default().with_workers(5), procs);
        rt.run_ticks(2);
        let out = rt.shutdown();
        let tags: Vec<usize> = out.processes.iter().map(|t| t.0).collect();
        assert_eq!(tags, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn with_process_mut_round_trips_a_result() {
        let mut rt = relay_runtime(6, 2);
        rt.run_ticks(3);
        let seen = rt.with_process_mut(ProcessId(4), |p| p.received.len());
        assert!(seen > 0);
        assert_eq!(rt.population(), 6);
        assert_eq!(rt.workers(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_process_mut_rejects_unknown_pid() {
        let mut rt = relay_runtime(3, 2);
        rt.with_process_mut(ProcessId(99), |_| ());
    }

    #[test]
    fn inject_lands_before_the_next_executed_tick() {
        let mut rt = relay_runtime(6, 3);
        rt.run_ticks(1);
        // Fire-and-forget: no reply, no barrier — the control drain at
        // the top of the worker's next tick must still apply it first.
        rt.inject(ProcessId(4), |p| p.received.push(0xBEEF));
        rt.run_ticks(1);
        let seen = rt.with_process_mut(ProcessId(4), |p| p.received.clone());
        assert!(
            seen.contains(&0xBEEF),
            "injected mutation visible after one more tick: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_rejects_unknown_pid() {
        let mut rt = relay_runtime(3, 2);
        rt.inject(ProcessId(99), |_| ());
    }

    #[test]
    fn drop_without_shutdown_joins_cleanly() {
        let mut rt = relay_runtime(12, 4);
        rt.run_ticks(2);
        drop(rt); // must not hang or panic
    }

    /// Runs `scenario` on a thread of its own and fails when it has not
    /// returned within `limit`: `with_process_mut`, `shutdown` and `drop`
    /// have no watchdog, so a lost wake-up would hang them.
    fn within(limit: Duration, scenario: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            scenario();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(limit)
            .expect("the scenario blocked or panicked");
    }

    /// Every grant of a `step_tick` loop meets workers that are
    /// spinning, about to block, or blocked — more of them than CPUs —
    /// and none may sleep through it. The lowered watchdog turns a lost
    /// wake-up into a failure within seconds.
    #[test]
    fn single_tick_grants_never_lose_a_wakeup() {
        let config = RuntimeConfig::default()
            .with_workers(4)
            .with_seed(1)
            .with_tick_timeout_ms(5_000);
        let mut rt = Runtime::spawn(config, relay_procs(8));
        for tick in 0..5_000 {
            assert_eq!(rt.step_tick().tick, tick);
        }
        let out = rt.shutdown();
        assert_eq!(out.counters.get("rt.delivered"), 40);
    }

    /// Control sends reach a worker blocked in `park`: each of them is
    /// followed by an unpark. The sleeps outlast the yield budget so the
    /// workers are (almost surely) blocked; the checks hold either way.
    #[test]
    fn control_reaches_a_blocked_worker() {
        let idle = || std::thread::sleep(Duration::from_millis(20));
        within(Duration::from_secs(10), move || {
            let mut rt = relay_runtime(6, 3);
            rt.run_ticks(1);
            idle();
            assert_eq!(rt.with_process_mut(ProcessId(4), |p| p.received.len()), 0);
            idle();
            rt.inject(ProcessId(4), |p| p.received.push(0xBEEF));
            assert_eq!(rt.step_tick().tick, 1);
            let seen = rt.with_process_mut(ProcessId(4), |p| p.received.clone());
            assert_eq!(seen, [0xBEEF, 1], "injected, then tick 1's delivery");
            idle();
            assert_eq!(rt.shutdown().counters.get("rt.delivered"), 6);

            let mut rt = relay_runtime(6, 3);
            rt.run_ticks(1);
            idle();
            drop(rt); // joins an idle pool without `shutdown`
        });
    }

    /// An unpark that finds its worker running leaves a token behind,
    /// and the next `park` returns at once. That only sends the worker
    /// round its loop again: it executes no tick it was not granted, so
    /// the run ends on the same tick with the same counters as one that
    /// saw no stray token.
    #[test]
    fn stray_unpark_tokens_are_harmless() {
        let mut rt = relay_runtime(10, 4);
        for _ in 0..64 {
            rt.inject(ProcessId(0), |p| p.received.push(0xBEEF));
        }
        assert_eq!(rt.run_until_quiescent(64), 7, "quiet at tick 6");
        let out = rt.shutdown();
        assert_eq!(out.counters.get("rt.sent"), 50);
        assert_eq!(out.counters.get("rt.delivered"), 50);
        assert_eq!(out.counters.get("rt.dropped_shutdown"), 0);
        assert_eq!(out.processes[0].received.len(), 64 + 5);
        for p in &out.processes[1..] {
            assert_eq!(p.received, [1, 2, 3, 4, 5]);
        }
    }

    /// Link latency is config input and must not size an allocation
    /// unbounded: the wheel's ring is capped, and a send slower than the
    /// ring spills and still arrives exactly on its due tick.
    #[test]
    fn slow_links_spill_past_a_bounded_ring() {
        let slow = |latency| {
            RuntimeConfig::default()
                .with_workers(2)
                .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(latency)))
        };
        assert_eq!(wheel_capacity(&RuntimeConfig::default()), 3);
        assert_eq!(wheel_capacity(&slow(20_000_000)), 1_025);
        assert_eq!(wheel_capacity(&slow(u64::MAX)), 1_025, "no overflow");

        let mut rt = Runtime::spawn(slow(20_000_000), relay_procs(2));
        rt.run_ticks(3);
        let out = rt.shutdown();
        assert_eq!(out.counters.get("rt.sent"), 6);
        assert_eq!(out.counters.get("rt.dropped_shutdown"), 6);

        let mut rt = Runtime::spawn(slow(1_500), relay_procs(4));
        assert_eq!(rt.run_until_quiescent(2_000), 1_506);
        for p in rt.shutdown().processes {
            assert_eq!(p.received, [1_500, 1_501, 1_502, 1_503, 1_504]);
        }
    }

    #[test]
    fn single_worker_pool_works() {
        let mut rt = relay_runtime(5, 1);
        rt.run_until_quiescent(32);
        let out = rt.shutdown();
        assert_eq!(out.counters.get("rt.sent"), 25);
    }

    /// Satellite requirement: the zero-latency (perfect) channel config
    /// is byte-for-byte the fault-free data-plane behaviour — same
    /// per-process receipt ticks, same counters — because the explicit
    /// reliable config and the default are the same draw-free path.
    #[test]
    fn explicit_reliable_channel_equals_default_event_set() {
        let run = |config: RuntimeConfig| {
            let mut rt = Runtime::spawn(config.with_workers(3).with_seed(1), relay_procs(9));
            rt.run_until_quiescent(32);
            let out = rt.shutdown();
            let receipts: Vec<Vec<u64>> = out
                .processes
                .into_iter()
                .map(|p| {
                    let mut r = p.received;
                    r.sort_unstable();
                    r
                })
                .collect();
            (
                receipts,
                out.counters.get("rt.sent"),
                out.counters.get("rt.delivered"),
            )
        };
        let default = run(RuntimeConfig::default());
        let explicit = run(RuntimeConfig::default()
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(1))));
        assert_eq!(default, explicit);
    }

    #[test]
    fn fixed_latency_delivers_exactly_k_ticks_later() {
        /// Process 0 sends one message to process 1 in tick 0; the
        /// receipt tick must honour the configured latency.
        struct OneShot {
            receipt: Option<u64>,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl WireSize for M {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl ExecProtocol for OneShot {
            type Msg = M;
            fn on_message<X: Exec<Msg = M>>(&mut self, _f: ProcessId, _m: M, ctx: &mut X) {
                self.receipt = Some(ctx.round());
            }
            fn on_round<X: Exec<Msg = M>>(&mut self, round: u64, ctx: &mut X) {
                if round == 0 && ctx.me() == ProcessId(0) {
                    ctx.send(ProcessId(1), M);
                }
            }
        }
        let config = RuntimeConfig::default()
            .with_workers(2)
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(3)));
        let procs = (0..2).map(|_| OneShot { receipt: None }).collect();
        let mut rt = Runtime::spawn(config, procs);
        let reports = rt.run_ticks(5);
        // Ticks 1 and 2 hold the message pending; tick 3 delivers it.
        assert_eq!(reports[1].pending, 1);
        assert_eq!(reports[2].pending, 1);
        assert_eq!(reports[3].delivered, 1);
        let out = rt.shutdown();
        assert_eq!(out.processes[1].receipt, Some(3));
        assert_eq!(out.counters.get("rt.dropped_shutdown"), 0);
    }

    #[test]
    fn pending_messages_defer_quiescence() {
        let config = RuntimeConfig::default()
            .with_workers(2)
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(4)));
        let mut rt = Runtime::spawn(config, relay_procs(6));
        let executed = rt.run_until_quiescent(64);
        assert!(executed < 64);
        let out = rt.shutdown();
        // Latency stretches the schedule but loses nothing.
        assert_eq!(out.counters.get("rt.sent"), 30);
        assert_eq!(out.counters.get("rt.delivered"), 30);
    }

    /// Satellite requirement: messages still in flight at `shutdown` are
    /// accounted, not hung on. With latency 5, everything sent in the
    /// two executed ticks is still parked when the pool stops.
    #[test]
    fn shutdown_accounts_in_flight_messages() {
        let config = RuntimeConfig::default()
            .with_workers(3)
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(5)));
        let mut rt = Runtime::spawn(config, relay_procs(8));
        rt.run_ticks(2);
        let out = rt.shutdown(); // must not hang waiting for due ticks
        let sent = out.counters.get("rt.sent");
        assert_eq!(sent, 16, "8 senders × 2 ticks");
        assert_eq!(out.counters.get("rt.delivered"), 0);
        assert_eq!(out.counters.get("rt.dropped_shutdown"), sent);
    }

    /// Satellite requirement (dropped_shutdown audit): with workers
    /// drifting under a nonzero lag window, a mid-flight shutdown must
    /// still account every queued envelope exactly once — whether it is
    /// parked on a receiver's wheel, sitting in an inbox behind a
    /// watermark, or already delivered.
    #[test]
    fn shutdown_accounting_is_exact_at_nonzero_lag() {
        for (run_ticks, max_lag) in [(1, 4), (2, 4), (4, 2), (7, 3)] {
            let config = RuntimeConfig::default()
                .with_workers(3)
                .with_seed(run_ticks * 31 + max_lag)
                .with_max_lag(max_lag)
                .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(3)));
            assert!(config.effective_lag() > 1, "the lag window must be real");
            let mut rt = Runtime::spawn(config, relay_procs(9));
            rt.run_ticks(run_ticks);
            let out = rt.shutdown();
            let sent = out.counters.get("rt.sent");
            let delivered = out.counters.get("rt.delivered");
            let dropped = out.counters.get("rt.dropped_shutdown");
            assert_eq!(sent, 9 * run_ticks.min(5), "run={run_ticks}");
            assert_eq!(
                delivered + dropped,
                sent,
                "run={run_ticks} lag={max_lag}: every envelope exactly once"
            );
            let received: u64 = out.processes.iter().map(|p| p.received.len() as u64).sum();
            assert_eq!(received, delivered, "processes agree with the counters");
        }
    }

    #[test]
    fn lossy_channel_drops_and_still_quiesces() {
        let config = RuntimeConfig::default()
            .with_workers(2)
            .with_seed(9)
            .with_channel(ChannelConfig::reliable().with_success_probability(0.5));
        let mut rt = Runtime::spawn(config, relay_procs(10));
        let executed = rt.run_until_quiescent(64);
        assert!(executed < 64);
        let out = rt.shutdown();
        let sent = out.counters.get("rt.sent");
        let delivered = out.counters.get("rt.delivered");
        let dropped = out.counters.get("rt.dropped_channel");
        assert_eq!(sent, 50);
        assert_eq!(delivered + dropped, sent, "every send is accounted");
        assert!(
            (10..40).contains(&dropped),
            "dropped {dropped} of {sent}, expected ≈ half"
        );
    }

    /// A latency floor above one tick opens a real drift window: the
    /// delivered outcome must not depend on how wide it is.
    #[test]
    fn outcome_is_stable_across_lag_windows() {
        let run = |max_lag: u64| {
            let config = RuntimeConfig::default()
                .with_workers(4)
                .with_seed(5)
                .with_max_lag(max_lag)
                .with_channel(
                    ChannelConfig::reliable()
                        .with_success_probability(0.8)
                        .with_latency(Latency::UniformRounds { min: 2, max: 4 }),
                );
            let mut rt = Runtime::spawn(config, relay_procs(12));
            rt.run_until_quiescent(64);
            let out = rt.shutdown();
            let mut receipts: Vec<Vec<u64>> = out
                .processes
                .into_iter()
                .map(|p| {
                    let mut r = p.received;
                    r.sort_unstable();
                    r
                })
                .collect();
            receipts.sort();
            (
                receipts,
                out.counters.get("rt.delivered"),
                out.counters.get("rt.dropped_channel"),
            )
        };
        // Fates are per-edge and receipt ticks are due-tick-exact, so
        // the entire observable outcome is lag-invariant.
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(4));
    }

    #[test]
    #[should_panic(expected = "failed to ack tick")]
    fn watchdog_panics_instead_of_hanging() {
        struct Wedge;
        #[derive(Clone, Debug)]
        struct Never;
        impl WireSize for Never {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl ExecProtocol for Wedge {
            type Msg = Never;
            fn on_message<X: Exec<Msg = Never>>(&mut self, _f: ProcessId, _m: Never, _c: &mut X) {}
            fn on_round<X: Exec<Msg = Never>>(&mut self, round: u64, _ctx: &mut X) {
                if round == 0 {
                    // Simulate a wedged protocol callback, far beyond the
                    // watchdog (the sleep also bounds how long the leaked
                    // worker outlives the panic).
                    std::thread::sleep(Duration::from_secs(5));
                }
            }
        }
        let mut rt = Runtime::spawn(
            RuntimeConfig::default()
                .with_workers(1)
                .with_tick_timeout_ms(50),
            vec![Wedge],
        );
        // Must panic promptly — and the unwinding Drop must NOT block on
        // joining the wedged worker (that would hang this test).
        rt.step_tick();
    }

    /// A worker that panics out of a protocol hook must be diagnosed
    /// promptly (the join handle is the only death signal left — no
    /// per-tick coordinator→worker send exists to fail fast), not after
    /// sitting out the full tick watchdog.
    #[test]
    #[should_panic(expected = "died before acking tick")]
    fn dead_worker_is_diagnosed_promptly() {
        struct Bomb;
        #[derive(Clone, Debug)]
        struct Never;
        impl WireSize for Never {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl ExecProtocol for Bomb {
            type Msg = Never;
            fn on_message<X: Exec<Msg = Never>>(&mut self, _f: ProcessId, _m: Never, _c: &mut X) {}
            fn on_round<X: Exec<Msg = Never>>(&mut self, round: u64, ctx: &mut X) {
                if round == 1 && ctx.me() == ProcessId(0) {
                    panic!("protocol bug");
                }
            }
        }
        // The watchdog is far out (5 s): only the prompt death check can
        // produce the expected panic; a regression to timeout-only
        // detection fails this test on the message after 5 s.
        let mut rt = Runtime::spawn(
            RuntimeConfig::default()
                .with_workers(2)
                .with_tick_timeout_ms(5_000),
            vec![Bomb, Bomb],
        );
        rt.run_ticks(2);
    }

    #[test]
    fn per_process_rng_streams_follow_the_seed() {
        use rand::Rng as _;
        struct Draw {
            value: u64,
        }
        #[derive(Clone, Debug)]
        struct Never;
        impl WireSize for Never {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl ExecProtocol for Draw {
            type Msg = Never;
            fn on_message<X: Exec<Msg = Never>>(&mut self, _f: ProcessId, _m: Never, _c: &mut X) {}
            fn on_round<X: Exec<Msg = Never>>(&mut self, round: u64, ctx: &mut X) {
                if round == 0 {
                    self.value = ctx.rng().gen();
                }
            }
        }
        let run = |workers: usize| {
            let procs = (0..9).map(|_| Draw { value: 0 }).collect();
            let mut rt = Runtime::spawn(
                RuntimeConfig::default().with_workers(workers).with_seed(42),
                procs,
            );
            rt.run_ticks(1);
            let out = rt.shutdown();
            out.processes.iter().map(|d| d.value).collect::<Vec<u64>>()
        };
        // The stream belongs to the process, not the worker: regrouping
        // the pool must not change the first draw of any process.
        assert_eq!(run(2), run(4));
    }

    /// A protocol probe recording exactly which rounds it executed and
    /// how often it was recovered — the full observable lifecycle
    /// schedule of a process.
    #[derive(Clone, Debug, Default)]
    struct LifeProbe {
        rounds: Vec<u64>,
        started: bool,
        recoveries: u64,
    }

    #[derive(Clone, Debug)]
    struct Nix;
    impl WireSize for Nix {
        fn wire_size(&self) -> usize {
            0
        }
    }

    impl ExecProtocol for LifeProbe {
        type Msg = Nix;
        fn on_start<X: Exec<Msg = Nix>>(&mut self, _ctx: &mut X) {
            self.started = true;
        }
        fn on_message<X: Exec<Msg = Nix>>(&mut self, _f: ProcessId, _m: Nix, _c: &mut X) {}
        fn on_round<X: Exec<Msg = Nix>>(&mut self, round: u64, _ctx: &mut X) {
            self.rounds.push(round);
        }
        fn on_recover<X: Exec<Msg = Nix>>(&mut self, _ctx: &mut X) {
            self.recoveries += 1;
        }
    }

    /// Tentpole acceptance: the same seed materialises the same
    /// `FailurePlan` fates on the simulator and on the runtime,
    /// regardless of worker count — every process executes the exact
    /// same set of rounds, is recovered the same number of times, and
    /// ends in the same status.
    #[test]
    fn failure_fates_match_the_simulator_at_any_worker_count() {
        use da_core::failure::FailureModel;
        const N: usize = 12;
        const TICKS: u64 = 40;
        let model = || FailureModel::Churn {
            crash_probability: 0.15,
            recover_probability: 0.3,
        };

        let mut engine = da_simnet::Engine::new(
            da_simnet::SimConfig::default()
                .with_seed(11)
                .with_failures(model()),
            (0..N).map(|_| LifeProbe::default()).collect(),
        );
        engine.run_rounds(TICKS);
        let sim_statuses: Vec<bool> = (0..N)
            .map(|i| engine.status(ProcessId::from_index(i)).is_alive())
            .collect();
        let sim_crashes = engine.counters().get("sim.churn_crashes");
        let sim_recoveries = engine.counters().get("sim.churn_recoveries");
        let sim_probes: Vec<LifeProbe> = engine.into_processes();

        for workers in [1usize, 4] {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_seed(11)
                .with_failures(model());
            let mut rt = Runtime::spawn(config, (0..N).map(|_| LifeProbe::default()).collect());
            rt.run_ticks(TICKS);
            let out = rt.shutdown();
            for (pid, (sim, live)) in sim_probes.iter().zip(&out.processes).enumerate() {
                assert_eq!(
                    sim.rounds, live.rounds,
                    "process {pid} executed different rounds at {workers} workers"
                );
                assert_eq!(sim.recoveries, live.recoveries, "process {pid} recoveries");
            }
            let live_statuses: Vec<bool> = out.statuses.iter().map(|s| s.is_alive()).collect();
            assert_eq!(
                sim_statuses, live_statuses,
                "{workers} workers: final liveness"
            );
            assert_eq!(out.counters.get("rt.churn_crashes"), sim_crashes);
            assert_eq!(out.counters.get("rt.churn_recoveries"), sim_recoveries);
        }
        assert!(sim_crashes > 0 && sim_recoveries > 0, "the run saw churn");
    }

    /// A crash and a recovery of one process scripted into the same
    /// round are one net transition (`FailurePlan::transition`): the
    /// process never goes down, re-enters through `on_recover` once, and
    /// the trace holds a single `Recovered` — on both substrates.
    #[test]
    fn same_round_crash_and_recovery_matches_the_simulator() {
        use da_core::failure::{FailureModel, Fate};
        let fate = |crash| Fate {
            round: 2,
            pid: ProcessId(1),
            crash,
        };
        let model = || FailureModel::Schedule(vec![fate(true), fate(false)]);
        let probes = || (0..4).map(|_| LifeProbe::default()).collect::<Vec<_>>();

        let sim = da_simnet::SimConfig::default()
            .with_failures(model())
            .with_trace(TraceConfig::full());
        let mut engine = da_simnet::Engine::new(sim, probes());
        engine.run_rounds(5);
        let sim_trace = engine.trace_log().expect("tracing is on");

        let live = RuntimeConfig::default()
            .with_workers(2)
            .with_failures(model())
            .with_trace(TraceConfig::full());
        let mut rt = Runtime::spawn(live, probes());
        rt.run_ticks(5);
        let out = rt.shutdown();
        let live_trace = out.trace.expect("tracing is on");

        let diverged = da_core::trace::first_divergence(
            &sim_trace.canonical_events(),
            &live_trace.canonical_events(),
        );
        assert_eq!(diverged, None);
        assert_eq!(live_trace.count(TraceVerdict::Recovered), 1);
        assert_eq!(live_trace.count(TraceVerdict::Crashed), 0);
        for (pid, (sim, live)) in engine
            .into_processes()
            .iter()
            .zip(&out.processes)
            .enumerate()
        {
            assert_eq!(sim.recoveries, u64::from(pid == 1), "simulated {pid}");
            assert_eq!(live.recoveries, u64::from(pid == 1), "live {pid}");
            assert_eq!(sim.rounds, live.rounds, "process {pid} rounds");
            assert_eq!(live.rounds, [0, 1, 2, 3, 4], "nobody missed a round");
        }
    }

    /// Stillborn processes are applied at spawn: they never run
    /// `on_start`, never execute a round — and the crashed set is the
    /// plan's, identical to the simulator's.
    #[test]
    fn stillborn_processes_never_start() {
        use da_core::failure::FailureModel;
        let config = RuntimeConfig::default()
            .with_workers(3)
            .with_seed(5)
            .with_failures(FailureModel::Stillborn {
                alive_fraction: 0.5,
            });
        let plan = FailureModel::Stillborn {
            alive_fraction: 0.5,
        }
        .materialize(10, 5);
        let mut rt = Runtime::spawn(config, (0..10).map(|_| LifeProbe::default()).collect());
        rt.run_ticks(5);
        let out = rt.shutdown();
        for (i, p) in out.processes.iter().enumerate() {
            let crashed = plan.is_initially_crashed(ProcessId::from_index(i));
            assert_eq!(p.started, !crashed, "process {i} started");
            assert_eq!(p.rounds.is_empty(), crashed, "process {i} rounds");
            assert_eq!(out.statuses[i].is_alive(), !crashed);
        }
        assert_eq!(out.counters.get("rt.dropped_crashed"), 0);
    }

    /// Mid-flight crash accounting is exact: envelopes owed to a crashed
    /// process drain to `rt.dropped_crashed`, quiescence is still
    /// reached, and every envelope ends in exactly one of delivered /
    /// `rt.dropped_channel` / `rt.dropped_crashed` /
    /// `rt.dropped_shutdown`.
    #[test]
    fn crashed_inbox_drains_to_dropped_crashed() {
        use da_core::failure::{FailureModel, Fate};
        for (workers, max_lag, latency) in [(2, 1, 1), (3, 3, 3)] {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_seed(3)
                .with_max_lag(max_lag)
                .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(latency)))
                .with_failures(FailureModel::Schedule(vec![Fate {
                    round: 2,
                    pid: ProcessId(1),
                    crash: true,
                }]));
            let mut rt = Runtime::spawn(config, relay_procs(6));
            let executed = rt.run_until_quiescent(64);
            assert!(executed < 64, "crashed receivers must not wedge the run");
            let out = rt.shutdown();
            let sent = out.counters.get("rt.sent");
            let delivered = out.counters.get("rt.delivered");
            let dropped_crashed = out.counters.get("rt.dropped_crashed");
            let dropped_shutdown = out.counters.get("rt.dropped_shutdown");
            // p1 crashes at tick 2, so it only sends in ticks 0 and 1:
            // 5 x 5 + 2 sends in total.
            assert_eq!(sent, 27, "crashed processes stop sending");
            assert!(
                dropped_crashed > 0,
                "p1's inbox must drain to rt.dropped_crashed"
            );
            assert_eq!(
                delivered + dropped_crashed + dropped_shutdown,
                sent,
                "workers={workers} lag={max_lag}: every envelope exactly once"
            );
            assert!(!out.statuses[1].is_alive());
            let received: u64 = out.processes.iter().map(|p| p.received.len() as u64).sum();
            assert_eq!(received, delivered);
        }
    }

    /// Satellite requirement: with a partition window, loss, latency,
    /// and a mid-run crash all active at once, the envelope ledger is
    /// exact at max_lag ∈ {1, 4} — every send ends in exactly one of
    /// delivered / dropped_channel / dropped_partitioned /
    /// dropped_crashed / dropped_observed_failed / dropped_shutdown /
    /// dropped_closed. Partition drops happen at send time (they never
    /// enter flight), so the coordinator's in-flight ledger needs no
    /// special case.
    #[test]
    fn partition_accounting_is_exact_across_lag_windows() {
        use da_core::failure::{FailureModel, Fate};
        use da_core::topology::{NodeId, Partition, PartitionSchedule, Topology};
        for (workers, max_lag, latency) in [(2, 1, 1), (3, 4, 4)] {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_seed(3)
                .with_max_lag(max_lag)
                .with_channel(
                    ChannelConfig::reliable()
                        .with_success_probability(0.7)
                        .with_latency(Latency::Fixed(latency)),
                )
                .with_topology(
                    // Ring 0→1→…→5→0 with pids 3..6 on node B: the 2→3
                    // and 5→0 hops cross the cut.
                    Topology::with_nodes(["a", "b"]).with_placement_range(3..6, NodeId(1)),
                )
                .with_partitions(PartitionSchedule::none().with_partition(
                    Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 1).heal_at(3),
                ))
                .with_failures(FailureModel::Schedule(vec![Fate {
                    round: 2,
                    pid: ProcessId(1),
                    crash: true,
                }]));
            let mut rt = Runtime::spawn(config, relay_procs(6));
            let executed = rt.run_until_quiescent(64);
            assert!(executed < 64, "partitions must not wedge the run");
            let out = rt.shutdown();
            let sent = out.counters.get("rt.sent");
            let delivered = out.counters.get("rt.delivered");
            let dropped_partitioned = out.counters.get("rt.dropped_partitioned");
            assert!(
                dropped_partitioned > 0,
                "the cross-node hops at ticks 1..3 must be severed"
            );
            let accounted = delivered
                + out.counters.get("rt.dropped_channel")
                + dropped_partitioned
                + out.counters.get("rt.dropped_crashed")
                + out.counters.get("rt.dropped_observed_failed")
                + out.counters.get("rt.dropped_shutdown")
                + out.counters.get("rt.dropped_closed");
            assert_eq!(
                accounted, sent,
                "workers={workers} lag={max_lag}: every envelope exactly once"
            );
            let received: u64 = out.processes.iter().map(|p| p.received.len() as u64).sum();
            assert_eq!(received, delivered);
        }
    }

    /// The per-observer model (paper Fig. 11) live: every transmission
    /// independently observes its target as failed with probability
    /// `1 - alive_fraction`, nobody is globally crashed, and the
    /// envelope accounting stays exact.
    #[test]
    fn per_observer_drops_fraction_live() {
        use da_core::failure::FailureModel;
        let config = RuntimeConfig::default()
            .with_workers(3)
            .with_seed(13)
            .with_failures(FailureModel::PerObserver {
                alive_fraction: 0.7,
            });
        let mut rt = Runtime::spawn(config, relay_procs(10));
        let executed = rt.run_until_quiescent(64);
        assert!(executed < 64);
        let out = rt.shutdown();
        let sent = out.counters.get("rt.sent");
        let delivered = out.counters.get("rt.delivered");
        let observed = out.counters.get("rt.dropped_observed_failed");
        assert_eq!(sent, 50, "10 senders x ticks 0..5");
        assert_eq!(delivered + observed, sent, "every envelope accounted");
        assert!(
            (5..25).contains(&observed),
            "observer drops {observed}/{sent}, expected ≈ 15"
        );
        // Nobody is actually crashed in this model.
        assert!(out.statuses.iter().all(|s| s.is_alive()));
        assert_eq!(out.counters.get("rt.dropped_crashed"), 0);
    }

    /// Channel fates key off the edge, not the worker: the multiset of
    /// per-process loss counts is identical however the pool is striped.
    #[test]
    fn channel_fates_are_stripe_independent() {
        let run = |workers: usize| {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_seed(7)
                .with_channel(ChannelConfig::reliable().with_success_probability(0.6));
            let mut rt = Runtime::spawn(config, relay_procs(12));
            rt.run_until_quiescent(64);
            let out = rt.shutdown();
            (
                out.counters.get("rt.dropped_channel"),
                out.counters.get("rt.delivered"),
            )
        };
        // The relay's send pattern is deterministic (next-pid ring), so
        // per-edge draws — and with them the global loss totals — must
        // not move when the worker count changes.
        assert_eq!(run(1), run(4));
    }

    use da_core::trace::{TraceConfig, TraceVerdict};

    #[test]
    fn tracing_is_off_by_default() {
        let mut rt = relay_runtime(6, 2);
        rt.run_ticks(2);
        assert!(rt.trace_log().is_none());
        assert!(rt.shutdown().trace.is_none());
    }

    /// Tentpole acceptance: the flight recorder's verdict counts are the
    /// envelope ledger — every trace count equals its counter, the
    /// event buffer holds one event per count, and the latency histogram
    /// saw every delivery.
    #[test]
    fn full_trace_mirrors_the_counters() {
        let config = RuntimeConfig::default()
            .with_workers(3)
            .with_seed(9)
            .with_channel(ChannelConfig::reliable().with_success_probability(0.6))
            .with_trace(TraceConfig::full());
        let mut rt = Runtime::spawn(config, relay_procs(10));
        rt.run_until_quiescent(64);
        let out = rt.shutdown();
        let log = out.trace.expect("tracing was on");
        assert_eq!(log.count(TraceVerdict::Sent), out.counters.get("rt.sent"));
        assert_eq!(
            log.count(TraceVerdict::Delivered),
            out.counters.get("rt.delivered")
        );
        assert_eq!(
            log.count(TraceVerdict::DroppedChannel),
            out.counters.get("rt.dropped_channel")
        );
        assert!(
            log.count(TraceVerdict::DroppedChannel) > 0,
            "the run lost messages"
        );
        assert_eq!(
            log.events.len() as u64,
            log.verdict_counts.iter().sum::<u64>(),
            "full mode buffers one event per counted verdict"
        );
        assert_eq!(log.dropped_events, 0);
        let latency = log.histogram("delivery_latency_ticks").expect("histogram");
        assert_eq!(latency.count(), out.counters.get("rt.delivered"));
        assert_eq!(latency.max(), 1, "the relay runs on latency-1 channels");
        assert!(log.histogram("wheel_occupancy").is_some());
        assert!(log.histogram("watermark_lag").is_some());
        let lane_depth = log.histogram("lane_depth").expect("histogram");
        assert!(
            lane_depth.count() > 0,
            "every executed tick samples the lanes swept"
        );
    }

    #[test]
    fn counters_only_keeps_the_ledger_without_events() {
        let config = RuntimeConfig::default()
            .with_workers(2)
            .with_seed(1)
            .with_trace(TraceConfig::counters_only());
        let mut rt = Runtime::spawn(config, relay_procs(6));
        rt.run_until_quiescent(64);
        let out = rt.shutdown();
        let log = out.trace.expect("tracing was on");
        assert!(log.events.is_empty(), "counters-only buffers nothing");
        assert_eq!(log.count(TraceVerdict::Sent), 30);
        assert_eq!(log.count(TraceVerdict::Delivered), 30);
    }

    /// Lifecycle events land in the stream: one `crashed` per downward
    /// transition, one `recovered` per upward one, self-edged, matching
    /// the churn counters.
    #[test]
    fn lifecycle_events_match_churn_counters() {
        use da_core::failure::FailureModel;
        let config = RuntimeConfig::default()
            .with_workers(3)
            .with_seed(11)
            .with_failures(FailureModel::Churn {
                crash_probability: 0.15,
                recover_probability: 0.3,
            })
            .with_trace(TraceConfig::full());
        let mut rt = Runtime::spawn(config, (0..12).map(|_| LifeProbe::default()).collect());
        rt.run_ticks(40);
        let out = rt.shutdown();
        let log = out.trace.expect("tracing was on");
        assert_eq!(
            log.count(TraceVerdict::Crashed),
            out.counters.get("rt.churn_crashes"),
            "churn is the only crash source here"
        );
        assert_eq!(
            log.count(TraceVerdict::Recovered),
            out.counters.get("rt.churn_recoveries")
        );
        assert!(log.count(TraceVerdict::Crashed) > 0, "the run saw churn");
        for e in log
            .events
            .iter()
            .filter(|e| e.verdict == TraceVerdict::Crashed)
        {
            assert_eq!(e.from, e.to, "lifecycle events are self-edged");
            assert_eq!(e.payload, 0);
        }
    }

    /// The canonical trace stream is a worker-count invariant: loss,
    /// latency, and churn draws all key off (edge, tick) or (pid, tick),
    /// so regrouping the pool permutes only the within-tick interleaving
    /// that canonicalization erases.
    ///
    /// The scenario also pins `quiescence_never_overshoots` under churn
    /// (it was PR 15's flake): mail consumed at its due tick as
    /// `rt.dropped_crashed` is neither delivered nor pending, so a
    /// non-zero in-flight ledger must not grant the tick after — no tick
    /// at or past the returned count may run even its lifecycle step.
    #[test]
    fn canonical_trace_is_worker_count_invariant() {
        use da_core::failure::FailureModel;
        let run = |workers: usize| {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_seed(7)
                .with_channel(
                    ChannelConfig::reliable()
                        .with_success_probability(0.7)
                        .with_latency(Latency::UniformRounds { min: 1, max: 3 }),
                )
                .with_failures(FailureModel::Churn {
                    crash_probability: 0.1,
                    recover_probability: 0.4,
                })
                .with_trace(TraceConfig::full());
            let mut rt = Runtime::spawn(config, relay_procs(12));
            let executed = rt.run_until_quiescent(64);
            let out = rt.shutdown();
            assert!(out.counters.get("rt.dropped_crashed") > 0);
            let events = out.trace.expect("tracing was on").canonical_events();
            let late: Vec<_> = events.iter().filter(|e| e.tick >= executed).collect();
            assert!(late.is_empty(), "{workers} workers ran on: {late:?}");
            events
        };
        let single = run(1);
        assert!(!single.is_empty());
        assert_eq!(single, run(3));
        assert_eq!(single, run(4));
    }
}
