//! The pool's coordinator: [`Runtime`] spawns the workers
//! ([`crate::worker`]), grants them ticks under the bounded-lag
//! scheduler, and folds their reports into [`TickReport`]s.
//!
//! ## Scheduling model
//!
//! There is no tick barrier: a broadcast-and-ack per tick would serialise
//! the pool on two channel hops plus a coordinator wake-up, and let one
//! slow worker gate every fast one even when none of its output could
//! matter yet. Two one-way signals take its place:
//!
//! * **Publish watermarks** ([`crate::EdgeWatermarks`]): after tick `t`'s
//!   flush, which ships every envelope due by `t + lag` on every
//!   out-edge, a worker bumps its one atomic. A worker may execute tick
//!   `n` once every peer has published through tick `n − lag`, where
//!   `lag = effective_lag(config)` — anything shipped later is due
//!   strictly after `n` (channel latency is at least `lag`), so no
//!   delivery can be missed and no rendezvous is needed.
//! * **A grant horizon** (one atomic): the coordinator publishes how far
//!   the pool may run, workers free-run up to it. `run_ticks` grants its
//!   whole budget upfront; `run_until_quiescent` grants tick `n + 1` as
//!   soon as tick `n` is *provably* not quiet (any worker reported
//!   activity, a worker holds an envelope due later, or — when no failure
//!   model can consume an envelope undelivered — the delivery ledger
//!   shows messages still in flight), which keeps the pipeline full
//!   during dissemination yet never lets a worker execute a tick past
//!   the quiescent one.
//!
//! Workers report each executed tick on a shared channel (fire and
//! forget — no round trip); the coordinator folds those into one
//! [`TickReport`] per tick, so `step_tick` / `run_until_quiescent` have
//! a barrier's external semantics: a message
//! sent at tick `n` is still processed at tick `n + k` for its sampled
//! latency `k`, and quiescence is still "nothing sent, delivered, or in
//! flight".

use crate::transport::{lane_matrix, EdgeWatermarks, FaultyRouter};
use crate::worker::{
    Control, Joined, PoolHistograms, SchedulerState, Telemetry, Worker, WorkerReport,
};
use da_core::ledger::{Registry, Renderer};
use da_core::process::ProcessIndexError;
use da_core::store::ProcessStore;
use da_core::{
    Counters, EnvelopeLedger, ExecProtocol, LifecycleController, PoolConfig, ProcessId,
    ProcessStatus, RunConfig, Stripe, Tally, TickReport, TraceLog, WireSize,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a wait on a worker checks whether it died: with no
/// per-tick coordinator→worker send left to fail fast, the join handles
/// are the only death signal.
const DEATH_POLL: Duration = Duration::from_millis(100);

/// Configuration of one live runtime: `da_core`'s [`RunConfig`] — seed,
/// faults and trace, set exactly as on the simulator — plus the pool's
/// [`PoolConfig`] (worker count, tick watchdog).
pub type RuntimeConfig = RunConfig<PoolConfig>;

/// The live runtime: a pool of worker threads executing
/// [`ExecProtocol`] processes as actors under a bounded-lag tick
/// scheduler (per-sender publish watermarks instead of a global barrier),
/// with the shared `da_core` channel fault model applied by the
/// transport.
///
/// The API is `da_simnet::Engine`'s where the concepts coincide
/// (`step_tick`/`run_ticks`/`run_until_quiescent`, `ledger`,
/// `counters`) — the harness's `Driver` holds the two to that by type —
/// and replaces direct process access with [`Runtime::with_process_mut`]
/// (processes live on worker threads) plus [`Runtime::shutdown`] (the
/// graceful path that joins the pool and returns them).
///
/// ```
/// use da_runtime::{Runtime, RuntimeConfig};
/// use damulticast::{Network, TopicParams};
///
/// let net = Network::linear(&[3, 9], TopicParams::default(), 1).unwrap();
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
    handles: Vec<JoinHandle<Joined<P>>>,
    /// Whether the workers record a trace (`trace_log` reads nothing
    /// when they do not).
    tracing: bool,
    sched: Arc<SchedulerState>,
    population: usize,
    /// The next tick to hand the caller (every tick below it is
    /// finalized: all workers reported it).
    tick: u64,
    /// Coordinator-side mirror of the shared horizon.
    granted: u64,
    /// Per granted tick not yet finalized: reports so far, their ledgers' sum.
    backlog: BTreeMap<u64, (usize, EnvelopeLedger)>,
    /// The pool's envelope ledger as of the finalized frontier.
    finalized: EnvelopeLedger,
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
    /// Final envelope ledger; what was still in flight (possible under
    /// latency models above one tick) is counted as `dropped_shutdown`.
    pub ledger: EnvelopeLedger,
    /// What the protocol counted, every worker's tally summed.
    pub tally: Tally,
    /// Final merged counters, with the ledger and the tally by name.
    pub counters: Counters,
    /// Merged flight-recorder log (events across all workers, verdict
    /// counts, `delivery_latency_ticks` / `wheel_occupancy` /
    /// `watermark_lag` / `lane_depth` histograms) — `None` when tracing
    /// was off. Each worker's recorder bounds its own events by the
    /// configured capacity, so a pool keeps up to `workers × capacity`.
    /// Canonicalize the events before comparing against another
    /// substrate's stream.
    pub trace: Option<TraceLog>,
}

/// How many ticks a fast worker may run ahead of the slowest peer's
/// *published* frontier: the network's latency floor, in
/// `[1, MAX_RING_TICKS]` once [`Runtime::spawn`] has checked the config.
///
/// A worker may execute tick `n` once every peer has published its
/// outbound batches through tick `n - lag`. Anything a peer sends later
/// is due strictly after `n` — its latency is at least
/// [`da_core::NetworkModel::min_latency`], the channel's floor — so no
/// delivery can be missed. One-tick links pin workers within one tick of each other; a
/// floor of `k` ticks lets them drift `k` apart at the price of up to
/// `k` batches buffered per lane.
fn effective_lag(config: &RuntimeConfig) -> u64 {
    config.faults.network.min_latency()
}

/// The pool size for a population: the configured count, or one worker
/// per CPU when auto-sized — never more workers than processes, never
/// zero.
fn effective_workers(pool: &PoolConfig, population: usize) -> usize {
    let base = if pool.workers == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        pool.workers
    };
    base.min(population.max(1)).max(1)
}

/// Slots of each SPSC lane, allocated eagerly `2 × workers²` times: the
/// watermark gate bounds any (producer, consumer) lane at `lag + 1`
/// unswept batches (a producer at tick `p` requires the consumer to
/// have published `p + 1 - lag`, so `p - c <= lag`; one batch per
/// producer tick on a lane), so `lag + 2` never blocks in steady state.
/// `Runtime::spawn` bounds the lag, and with it the allocation.
fn lane_capacity(config: &RuntimeConfig) -> usize {
    effective_lag(config) as usize + 2
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
    /// Panics when the OS refuses to spawn a worker thread, when the
    /// population exceeds the `u32` process-id space, or, before
    /// anything is allocated, when the link latency is past the ring's
    /// bound ([`da_core::NetworkModel::ring_ticks`]).
    #[must_use]
    pub fn spawn(config: RuntimeConfig, processes: Vec<P>) -> Self {
        Self::try_spawn(config, processes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible core of [`Runtime::spawn`]: validates the population
    /// against the `u32` process-id space once, here at the spawn
    /// boundary, so an oversized configuration comes back as a typed
    /// [`ProcessIndexError`] instead of a panic deep in striping.
    ///
    /// # Panics
    ///
    /// Panics when the OS refuses to spawn a worker thread, or when the
    /// link latency exceeds the ring's bound.
    fn try_spawn(config: RuntimeConfig, processes: Vec<P>) -> Result<Self, ProcessIndexError> {
        let population = processes.len();
        if population > 0 {
            // Every pid the pool will ever mint is below the population,
            // so this single check covers all of striping.
            ProcessId::try_from_index(population - 1)?;
        }
        let workers = effective_workers(&config.pool, population);

        // A latency past the ring's bound is refused before any lane is.
        let _ = config.faults.network.ring_ticks();
        let (hubs, inbox_rxs) = lane_matrix::<P::Msg>(workers, lane_capacity(&config));
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
        // pure in `(master, pid)`, so nothing is precomputed here). One
        // worker adopts the caller's vector as it is.
        let stripes = if workers == 1 {
            vec![processes]
        } else {
            let mut stripes: Vec<Vec<P>> = (0..workers)
                .map(|_| Vec::with_capacity(population.div_ceil(workers)))
                .collect();
            for (i, p) in processes.into_iter().enumerate() {
                stripes[i % workers].push(p);
            }
            stripes
        };

        let mut controls = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let stores = stripes
            .into_iter()
            .map(|stripe| ProcessStore::from_vec(config.seed, stripe));
        for (id, ((store, inbox), hub)) in stores.zip(inbox_rxs).zip(hubs).enumerate() {
            let (control_tx, control_rx) = mpsc::channel();
            let lifecycle = LifecycleController::new(Arc::clone(&plan), id, workers, store.len());
            let worker = Worker {
                id,
                stripe: Stripe::new(store, lifecycle, &config.trace),
                control: control_rx,
                inbox,
                faulty: FaultyRouter::new(hub, config.faults.network.clone(), config.seed),
                reports: report_tx.clone(),
                arrived: (0..workers).map(|_| Default::default()).collect(),
                swept: 0,
                trace: config.trace.is_enabled().then(PoolHistograms::default),
                sched: Arc::clone(&sched),
                lag: effective_lag(&config),
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
            tracing: config.trace.is_enabled(),
            sched,
            population,
            tick: 0,
            granted: 0,
            backlog: BTreeMap::new(),
            finalized: EnvelopeLedger::default(),
            in_flight_means_loud: plan.is_inert(),
            tick_timeout: Duration::from_millis(config.pool.tick_timeout_ms),
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
    /// `u` proves horizon `u + 2` safe, and a worker holding an envelope
    /// due at `d` proves horizon `d + 1` safe — which is how
    /// `run_until_quiescent` keeps workers up to a full latency window
    /// ahead of report collection without ever overshooting the
    /// quiescent tick.
    ///
    /// The wait is [`Runtime::recv_watched`]'s, so a worker that *died*
    /// is diagnosed promptly instead of after the full tick timeout.
    ///
    /// # Panics
    ///
    /// Panics when a worker has died, or fails to report within the
    /// tick timeout.
    fn collect_tick(&mut self, tick: u64, lookahead_cap: Option<u64>) -> TickReport {
        let workers = self.controls.len();
        let deadline = Instant::now() + self.tick_timeout;
        loop {
            if self.backlog.get(&tick).map(|t| t.0) == Some(workers) {
                break;
            }
            let report = self
                .recv_watched(&self.reports, deadline, format_args!("acking tick {tick}"))
                .unwrap_or_else(|| panic!("worker failed to ack tick {tick}: timed out"));
            if let Some(cap) = lookahead_cap {
                // Each report is its own non-quiescence proof, whatever
                // tick it is for, granted once, here: a loud tick `u`
                // puts the quiescent tick at `u + 1` or later (horizon
                // `u + 2` is safe), and a held envelope due at `d` is in
                // flight through every tick before `d` (horizon `d + 1`
                // is safe). Granting on arrival, not when the collected
                // tick finalizes, lets workers run multi-tick-latency
                // windows without parking once per tick.
                let mut proof = if report.loud { report.tick + 2 } else { 0 };
                if report.due_horizon > 0 {
                    proof = proof.max(report.due_horizon + 1);
                }
                if proof > 0 {
                    self.grant(proof.min(cap));
                }
            }
            let partial = self.backlog.entry(report.tick).or_default();
            partial.0 += 1;
            partial.1 += report.ledger;
        }
        let (_, now) = self.backlog.remove(&tick).expect("tick was just finalized");
        let before = self.finalized;
        self.finalized = now;
        TickReport {
            tick,
            sent: now.sent - before.sent,
            delivered: now.delivered - before.delivered,
            pending: now.in_flight().expect("delivery ledger went negative"),
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
    /// loud worker report, an envelope held for a later tick, or —
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
            let in_flight = self.finalized.in_flight().unwrap_or(0);
            if in_flight > 0 && self.in_flight_means_loud {
                // Something is still travelling and will be delivered
                // (or stay parked) at `tick`, so `tick` cannot be the
                // quiescent one: let the pool run one tick ahead. An
                // envelope a crashed or observed-failed destination may
                // consume proves nothing — `tick` can then be quiet.
                self.grant((tick + 2).min(cap));
            }
            let report = self.collect_tick(tick, Some(cap));
            self.tick += 1;
            if report.is_quiet() {
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
    /// Panics when `pid` is out of range, or, naming the worker, when
    /// its worker has died or does not answer within the tick timeout.
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
        let deadline = Instant::now() + self.tick_timeout;
        self.recv_watched(&rx, deadline, format_args!("answering an apply"))
            .unwrap_or_else(|| {
                panic!("runtime worker {worker} failed to answer an apply: timed out")
            })
    }

    /// The pool's envelope ledger: every worker's, read through the
    /// control channel and summed. Between driver calls every granted
    /// tick has been executed, so the read is exact: what
    /// [`Runtime::shutdown`] would return now, less the
    /// `dropped_shutdown` of whatever is still in flight.
    ///
    /// # Panics
    ///
    /// Panics, naming the worker, when a worker has died or does not
    /// answer within the tick timeout.
    #[must_use]
    pub fn ledger(&self) -> EnvelopeLedger {
        self.read(false).ledger
    }

    /// The pool's tally, read (and panicking) like [`Runtime::ledger`]:
    /// every worker's, summed cell by cell.
    #[must_use]
    pub fn tally(&self) -> Tally {
        self.read(false).tally
    }

    /// The pool's counters, read like [`Runtime::ledger`]: every
    /// worker's registry folded in worker-id order, with the ledger and
    /// the tally rendered among them.
    ///
    /// # Panics
    ///
    /// As [`Runtime::ledger`].
    #[must_use]
    pub fn counters(&self) -> Counters {
        self.read(false).counters
    }

    /// The pool's flight-recorder log, read like [`Runtime::counters`]:
    /// every worker's events, dropped count and histograms, folded in
    /// worker-id order — or `None`, without a round trip, when
    /// tracing is off. The live twin of `Engine::trace_log`.
    ///
    /// ```
    /// use da_core::testkit::Relay;
    /// use da_core::trace::TraceVerdict;
    /// use da_runtime::{Runtime, RuntimeConfig, TraceConfig};
    ///
    /// let config = RuntimeConfig::default()
    ///     .with_workers(2)
    ///     .with_trace(TraceConfig::full());
    /// let mut rt = Runtime::spawn(config, Relay::ring(4, 1));
    /// rt.run_ticks(2);
    /// let log = rt.trace_log().expect("tracing is on");
    /// let sent = log.events.iter().filter(|e| e.verdict == TraceVerdict::Sent);
    /// assert_eq!(sent.count(), 4);
    /// assert_eq!(log.events.len(), 8, "both workers' events, folded");
    /// // A read takes nothing away: shutdown hands back the same log.
    /// assert_eq!(rt.shutdown().trace.unwrap().events, log.events);
    /// ```
    ///
    /// # Panics
    ///
    /// As [`Runtime::ledger`].
    #[must_use]
    pub fn trace_log(&self) -> Option<TraceLog> {
        if !self.tracing {
            return None;
        }
        self.read(true).trace
    }

    /// Graceful shutdown: stops every worker, joins the pool, and
    /// returns the protocol instances (pid order) with the final metrics.
    /// In-flight messages (held by routers, swept or still on the lanes)
    /// are counted as `dropped_shutdown` — never silently lost, never
    /// waited for.
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
        let (stripes, parts): (Vec<_>, Vec<_>) = self
            .handles
            .drain(..)
            .map(|h| {
                let (stripe, telemetry) = h.join().expect("runtime worker panicked");
                (stripe, *telemetry)
            })
            .unzip();
        // One worker hands back the caller's vectors; more interleave
        // theirs by `pid = worker + local × workers` in one pass.
        let (processes, statuses) = match <[_; 1]>::try_from(stripes) {
            Ok([stripe]) => stripe,
            Err(stripes) => {
                let workers = stripes.len();
                let mut stripes: Vec<_> = stripes
                    .into_iter()
                    .map(|(procs, statuses)| procs.into_iter().zip(statuses))
                    .collect();
                (0..self.population)
                    .map(|pid| stripes[pid % workers].next().expect("a stripe per residue"))
                    .unzip()
            }
        };
        let Telemetry {
            ledger,
            tally,
            counters,
            trace,
        } = fold(parts);
        Shutdown {
            processes,
            statuses,
            ledger,
            tally,
            counters,
            trace,
        }
    }
}

/// Folds the workers' telemetry, in worker-id order, into the pool's:
/// ledgers and tallies summed and rendered into the counters, counters
/// by [`Counters::merge_from`], traces by [`TraceLog::merge_from`].
fn fold(parts: impl IntoIterator<Item = Telemetry>) -> Telemetry {
    let mut pool = Telemetry {
        ledger: EnvelopeLedger::default(),
        tally: Tally::default(),
        counters: Counters::new(),
        trace: None,
    };
    for part in parts {
        pool.ledger += part.ledger;
        pool.tally += &part.tally;
        pool.counters.merge_from(&part.counters);
        if let Some(trace) = &part.trace {
            pool.trace
                .get_or_insert_with(TraceLog::new)
                .merge_from(trace);
        }
    }
    let (ledger, tally) = (&pool.ledger, &pool.tally);
    Renderer::default().render(Registry::Pool, ledger, tally, &mut pool.counters);
    pool
}

impl<P: ExecProtocol> Runtime<P> {
    /// The only place a control message is sent: the send is followed
    /// by an unpark, so it reaches a worker blocked in `Worker::park`.
    fn send_control(&self, worker: usize, msg: Control<P>) -> Result<(), SendError<Control<P>>> {
        let sent = self.controls[worker].send(msg);
        self.handles[worker].thread().unpark();
        sent
    }

    /// Every worker's telemetry, asked for through the control channel —
    /// all workers first, then each reply in worker-id order — and
    /// folded. A worker answers from its control drain, which runs
    /// wherever it waits.
    ///
    /// # Panics
    ///
    /// Panics, naming the worker, when one has died or does not answer
    /// within the tick timeout.
    fn read(&self, trace: bool) -> Telemetry {
        let replies: Vec<Receiver<Telemetry>> = (0..self.controls.len())
            .map(|worker| {
                let (reply, rx) = mpsc::sync_channel(1);
                // A dead worker refuses the send and drops `reply`; the
                // wait below names it.
                let _ = self.send_control(worker, Control::Read { trace, reply });
                rx
            })
            .collect();
        let deadline = Instant::now() + self.tick_timeout;
        fold(replies.iter().enumerate().map(|(worker, rx)| {
            self.recv_watched(rx, deadline, format_args!("answering a read"))
                .unwrap_or_else(|| {
                    panic!("runtime worker {worker} failed to answer a read: timed out")
                })
        }))
    }

    /// Receives from `rx` before `deadline` — `None` once it passes —
    /// checking every [`DEATH_POLL`] whether a worker died. A worker
    /// thread that finished panicked (a clean stop answers first), and
    /// the call then panics naming it, at once instead of after the
    /// full timeout.
    fn recv_watched<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Instant,
        what: fmt::Arguments<'_>,
    ) -> Option<T> {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining.min(DEATH_POLL)) {
                Ok(value) => return Some(value),
                // Every sender is gone: let the worker that dropped them
                // finish dying.
                Err(RecvTimeoutError::Disconnected) => std::thread::yield_now(),
                Err(RecvTimeoutError::Timeout) => {}
            }
            if let Some(w) = self.handles.iter().position(JoinHandle::is_finished) {
                panic!("runtime worker {w} died before {what}");
            }
            if remaining <= DEATH_POLL {
                return None;
            }
        }
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
mod tests;
