//! The four workloads and the closed-loop driver that runs them.
//!
//! Every workload is **count-bounded**: the ops it runs are a pure
//! function of `(workload, --seed, --seconds)` — `ops = ops_per_second
//! × seconds`, fixture seeds derived from the seed — never of how fast
//! the host happens to be. Logical counters (`sent`, deliveries, ticks)
//! therefore repeat exactly for a given command line, and two commits
//! compare on identical work.
//!
//! FROZEN: the constants in this file (populations, burst size, op and
//! fixture counts, channel parameters) define what one op is. Changing
//! any of them rescales every reported number and needs a new baseline.

use crate::alloc;
use crate::calib::Calibrator;
use crate::spans::{SpanId, Spans};
use da_core::channel::{ChannelConfig, Latency};
use da_core::failure::FailureModel;
use da_core::seed::derive_seed;
use da_core::trace::TraceConfig;
use da_core::ProcessId;
use da_runtime::{Runtime, RuntimeConfig, TraceLog};
use da_simnet::{Counters, Engine, SimConfig, WireSize};
use damulticast::{
    metro_population, DaProcess, ExecProtocol, MetroProcess, ParamMap, StaticNetwork,
};
use std::time::Instant;

/// The paper's Sec. VII-A topology: root, middle and leaf group sizes.
const WAVE_GROUPS: [usize; 3] = [10, 100, 1000];
/// Publications injected per wave op.
const WAVE_BURST: usize = 8;
/// Headlines flooded by a metropolis population.
const METRO_HEADLINES: usize = 64;
/// A wave or flood op whose delivery ratio falls below this has failed.
const MIN_DELIVERY_RATIO: f64 = 0.90;

/// How one op is driven.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Publish → quiescence, giving up (and failing) at `max_ticks`.
    Quiescent { max_ticks: u64 },
    /// A fixed window of ticks, granted in bulk.
    Window { ticks: u64 },
}

/// The frozen description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Worker threads of the pool (1 for the simulator: the driver
    /// thread does the work). Also the number of calibration threads.
    pub workers: usize,
    pub population: usize,
    /// Ops per `--seconds` second; sized once so that a run of
    /// `run_seconds` takes about that long on the reference host.
    pub ops_per_second: usize,
    /// Ops driven on one fixture before it is rebuilt with the next
    /// seed. Bounds the protocols' ever-growing `seen`/`delivered`
    /// state so ops stay stationary, and gives `setup_s` its samples.
    pub ops_per_fixture: usize,
    pub drive: Drive,
    /// Hop budget of the metropolis flood (unused by the wave workloads).
    pub metro_ttl: u8,
}

pub const SIM_WAVE: Spec = Spec {
    name: "sim_wave",
    workers: 1,
    population: 1110,
    ops_per_second: 24,
    ops_per_fixture: 30,
    drive: Drive::Quiescent { max_ticks: 64 },
    metro_ttl: 0,
};

pub const LIVE_WAVE: Spec = Spec {
    name: "live_wave",
    workers: 2,
    population: 1110,
    ops_per_second: 36,
    ops_per_fixture: 30,
    drive: Drive::Quiescent { max_ticks: 64 },
    metro_ttl: 0,
};

pub const METRO_FLOOD: Spec = Spec {
    name: "metro_flood",
    workers: 2,
    population: 4_096,
    ops_per_second: 18,
    ops_per_fixture: 1,
    drive: Drive::Quiescent { max_ticks: 1024 },
    metro_ttl: 126,
};

pub const METRO_CHURN: Spec = Spec {
    name: "metro_churn",
    workers: 1,
    // 2^17, not the paper-scale million: a tick over a million
    // processes streams ~73 MB, and such an op slows 2.3x between the
    // shared host's quiet and busy phases while the calibration slice
    // slows 1.8x — no slice tried tracked it (README, "Why metro_churn
    // is not a million processes"). At ~10 MB the op follows the slice.
    population: 131_072,
    ops_per_second: 30,
    ops_per_fixture: 20,
    drive: Drive::Window { ticks: 16 },
    metro_ttl: 24,
};

pub const ALL: [Spec; 4] = [SIM_WAVE, LIVE_WAVE, METRO_FLOOD, METRO_CHURN];

/// The metropolis channel: 5% loss, 1–3 tick latency — every send takes
/// a stateless fate draw and two thirds of the survivors park on the
/// delay wheel.
pub fn metro_channel() -> ChannelConfig {
    ChannelConfig::reliable()
        .with_success_probability(0.95)
        .with_latency(Latency::UniformRounds { min: 1, max: 3 })
}

/// The churn of `metro_churn`: 0.02% of the alive crash and 5% of the
/// crashed recover per tick (≈ 99.6% stationary aliveness, ~50
/// transitions per tick at 131,072 processes).
pub fn metro_churn_model() -> FailureModel {
    FailureModel::Churn {
        crash_probability: 0.0002,
        recover_probability: 0.05,
    }
}

/// Processes a headline can reach: everything within `ttl` hops of the
/// publisher on the `pid + 1`, `pid + ⌈√n⌉` overlay, the publisher
/// itself excluded. Computed here, independently of the protocol, so
/// `delivery_ratio` has a denominator the program cannot move.
pub fn metro_reach(population: usize, ttl: u8) -> u64 {
    let n = population as u64;
    let skip = ((population as f64).sqrt().ceil() as u64).max(1);
    let mut reached = vec![false; population];
    for hops in 1..=u64::from(ttl) {
        for skips in 0..=hops {
            let at = ((hops - skips) + skip * skips) % n;
            reached[at as usize] = true;
        }
    }
    reached[0] = false;
    reached.iter().filter(|r| **r).count() as u64
}

/// Cumulative counters of one fixture, read from the program's own
/// registry (`sim.*` or `rt.*`, plus the protocol's labels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub delivered: u64,
    /// Σ `dropped_*`: every way an envelope can end without delivery.
    pub dropped: u64,
    pub dropped_channel: u64,
    /// First-time application deliveries.
    pub first: u64,
    pub duplicate: u64,
    pub control: u64,
    pub parasite: u64,
    /// Churn crashes plus recoveries.
    pub transitions: u64,
}

impl Tally {
    /// Reads the tally of a `substrate` (`"sim"` or `"rt"`) registry.
    /// Only one protocol runs per fixture, so summing the daMulticast
    /// and metropolis labels picks whichever is present.
    fn read(c: &Counters, substrate: &str) -> Tally {
        let get = |name: &str| c.get(&format!("{substrate}.{name}"));
        Tally {
            sent: get("sent"),
            delivered: get("delivered"),
            dropped: c.sum_prefix(&format!("{substrate}.dropped_")),
            dropped_channel: get("dropped_channel"),
            first: c.sum_prefix("da.delivered.") + c.get("metro.first_delivery"),
            duplicate: c.sum_prefix("da.duplicate.") + c.get("metro.duplicate"),
            control: c.sum_prefix("da.control."),
            parasite: c.get("da.parasite"),
            transitions: get("churn_crashes") + get("churn_recoveries"),
        }
    }

    fn minus(self, earlier: Tally) -> Tally {
        Tally {
            sent: self.sent - earlier.sent,
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            dropped_channel: self.dropped_channel - earlier.dropped_channel,
            first: self.first - earlier.first,
            duplicate: self.duplicate - earlier.duplicate,
            control: self.control - earlier.control,
            parasite: self.parasite - earlier.parasite,
            transitions: self.transitions - earlier.transitions,
        }
    }

    fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.dropped_channel += other.dropped_channel;
        self.first += other.first;
        self.duplicate += other.duplicate;
        self.control += other.control;
        self.parasite += other.parasite;
        self.transitions += other.transitions;
    }

    /// Envelopes sent and not yet accounted for: the exact ledger is
    /// `sent = delivered + Σ dropped_*` once nothing is in flight.
    /// `None` when more were resolved than sent.
    fn unresolved(&self) -> Option<u64> {
        self.sent.checked_sub(self.delivered + self.dropped)
    }
}

/// What a fixture hands back when it is torn down.
pub struct Teardown {
    /// Final counters (for the live runtime: including
    /// `rt.dropped_shutdown`, so the ledger must balance exactly).
    pub tally: Tally,
    /// First-time deliveries as the application saw them: summed from
    /// the protocol instances, not from the counters.
    pub app_deliveries: u64,
    pub app_parasites: u64,
    /// Mean `|Table| + |sTable|` per process (0 for the metropolis).
    pub table_entries_mean: f64,
}

/// One substrate + protocol + population, built from a seed.
pub trait Fixture: Sized {
    /// True on the worker-pool runtime, false on the round simulator.
    const LIVE: bool;
    /// The network/population description `spawn` consumes.
    type Blueprint;
    /// Builds the population (timed as `build_network`).
    fn blueprint(spec: &Spec, seed: u64) -> Self::Blueprint;
    /// Starts the substrate over it (timed as `spawn`).
    fn spawn(spec: &Spec, seed: u64, blueprint: Self::Blueprint, trace: TraceConfig) -> Self;
    /// Injects op `k`'s inputs (k counts from 0 within the fixture).
    fn inject(&mut self, k: usize);
    /// Processes op `k` should reach, for `delivery_ratio`.
    fn audience(&self, k: usize) -> u64;
    /// Drives the op the way a user would; returns ticks executed.
    fn drive(&mut self, drive: Drive) -> u64;
    /// Executes one tick in lock step; true when it was quiet.
    fn step(&mut self) -> bool;
    /// Messages in flight inside the substrate, where it exposes that.
    fn in_flight(&self) -> u64 {
        0
    }
    fn tally(&self) -> Tally;
    /// The substrate's flight-recorder snapshot (counters-only runs).
    fn trace_log(&self) -> Option<TraceLog>;
    fn finish(self) -> Teardown;
}

pub fn wave_network(seed: u64) -> StaticNetwork {
    StaticNetwork::linear(&WAVE_GROUPS, ParamMap::default(), seed)
        .expect("the paper's topology is valid")
}

pub fn leaf_members(net: &StaticNetwork) -> Vec<ProcessId> {
    net.groups().last().expect("the leaf group").members.clone()
}

/// The `j`-th publisher of op `k`: leaf members in rotation.
fn wave_publisher(leaf: &[ProcessId], k: usize, j: usize) -> ProcessId {
    leaf[(k * WAVE_BURST + j) % leaf.len()]
}

fn da_teardown(tally: Tally, processes: &[DaProcess]) -> Teardown {
    let entries: usize = processes.iter().map(DaProcess::memory_entries).sum();
    Teardown {
        tally,
        app_deliveries: processes.iter().map(|p| p.delivered().len() as u64).sum(),
        app_parasites: processes.iter().map(DaProcess::parasite_count).sum(),
        table_entries_mean: entries as f64 / processes.len().max(1) as f64,
    }
}

/// `sim_wave`: daMulticast on the round simulator.
pub struct SimWave {
    engine: Engine<DaProcess>,
    leaf: Vec<ProcessId>,
}

impl Fixture for SimWave {
    const LIVE: bool = false;
    type Blueprint = StaticNetwork;

    fn blueprint(_spec: &Spec, seed: u64) -> StaticNetwork {
        wave_network(seed)
    }

    fn spawn(_spec: &Spec, seed: u64, net: StaticNetwork, trace: TraceConfig) -> Self {
        let leaf = leaf_members(&net);
        let config = SimConfig::default()
            .with_seed(seed)
            .with_channel(ChannelConfig::paper_default())
            .with_trace(trace);
        SimWave {
            engine: Engine::new(config, net.into_processes()),
            leaf,
        }
    }

    fn inject(&mut self, k: usize) {
        for j in 0..WAVE_BURST {
            self.engine
                .process_mut(wave_publisher(&self.leaf, k, j))
                .publish("bench");
        }
    }

    fn audience(&self, _k: usize) -> u64 {
        // Leaf events travel up: every process is interested.
        (WAVE_BURST * self.engine.population()) as u64
    }

    fn drive(&mut self, drive: Drive) -> u64 {
        match drive {
            Drive::Quiescent { max_ticks } => self.engine.run_until_quiescent(max_ticks),
            Drive::Window { ticks } => self.engine.run_rounds(ticks).len() as u64,
        }
    }

    fn step(&mut self) -> bool {
        self.engine.step_round().is_quiet() && self.engine.in_flight() == 0
    }

    fn in_flight(&self) -> u64 {
        self.engine.in_flight() as u64
    }

    fn tally(&self) -> Tally {
        Tally::read(self.engine.counters(), "sim")
    }

    fn trace_log(&self) -> Option<TraceLog> {
        self.engine.trace_log()
    }

    fn finish(self) -> Teardown {
        let tally = self.tally();
        da_teardown(tally, &self.engine.into_processes())
    }
}

/// The driving half every live fixture shares.
struct Pool<P: ExecProtocol>(Runtime<P>);

impl<P> Pool<P>
where
    P: ExecProtocol + Send + 'static,
    P::Msg: WireSize + Send + 'static,
{
    fn drive(&mut self, drive: Drive) -> u64 {
        match drive {
            Drive::Quiescent { max_ticks } => self.0.run_until_quiescent(max_ticks),
            Drive::Window { ticks } => self.0.run_ticks(ticks).len() as u64,
        }
    }

    fn step(&mut self) -> bool {
        self.0.step_tick().is_quiet()
    }

    fn tally(&self) -> Tally {
        Tally::read(&self.0.counters(), "rt")
    }
}

/// `live_wave`: the same daMulticast wave on the worker-pool runtime.
pub struct LiveWave {
    pool: Pool<DaProcess>,
    leaf: Vec<ProcessId>,
}

impl Fixture for LiveWave {
    const LIVE: bool = true;
    type Blueprint = StaticNetwork;

    fn blueprint(_spec: &Spec, seed: u64) -> StaticNetwork {
        wave_network(seed)
    }

    fn spawn(spec: &Spec, seed: u64, net: StaticNetwork, trace: TraceConfig) -> Self {
        let leaf = leaf_members(&net);
        let config = RuntimeConfig::default()
            .with_seed(seed)
            .with_workers(spec.workers)
            .with_channel(ChannelConfig::paper_default())
            .with_trace(trace);
        LiveWave {
            pool: Pool(Runtime::spawn(config, net.into_processes())),
            leaf,
        }
    }

    fn inject(&mut self, k: usize) {
        for j in 0..WAVE_BURST {
            self.pool
                .0
                .with_process_mut(wave_publisher(&self.leaf, k, j), |p| {
                    p.publish("bench");
                });
        }
    }

    fn audience(&self, _k: usize) -> u64 {
        (WAVE_BURST * self.pool.0.population()) as u64
    }

    fn drive(&mut self, drive: Drive) -> u64 {
        self.pool.drive(drive)
    }

    fn step(&mut self) -> bool {
        self.pool.step()
    }

    fn tally(&self) -> Tally {
        self.pool.tally()
    }

    fn trace_log(&self) -> Option<TraceLog> {
        self.pool.0.trace_log()
    }

    fn finish(self) -> Teardown {
        let out = self.pool.0.shutdown();
        da_teardown(Tally::read(&out.counters, "rt"), &out.processes)
    }
}

/// `metro_flood` and `metro_churn`: the two-word metropolis protocol on
/// the worker-pool runtime.
pub struct Metro {
    pool: Pool<MetroProcess>,
    ttl: u8,
}

impl Fixture for Metro {
    const LIVE: bool = true;
    type Blueprint = Vec<MetroProcess>;

    fn blueprint(spec: &Spec, _seed: u64) -> Vec<MetroProcess> {
        metro_population(spec.population, METRO_HEADLINES, spec.metro_ttl)
    }

    fn spawn(spec: &Spec, seed: u64, population: Vec<MetroProcess>, trace: TraceConfig) -> Self {
        // The window-driven workload is the churn one: its job is the
        // lifecycle scan, so it runs with the failure plan live.
        let failure = match spec.drive {
            Drive::Quiescent { .. } => FailureModel::None,
            Drive::Window { .. } => metro_churn_model(),
        };
        let config = RuntimeConfig::default()
            .with_seed(seed)
            .with_workers(spec.workers)
            .with_channel(metro_channel())
            .with_failures(failure)
            .with_trace(trace);
        Metro {
            pool: Pool(Runtime::spawn(config, population)),
            ttl: spec.metro_ttl,
        }
    }

    fn inject(&mut self, _k: usize) {
        // Publishers announce at start; there is nothing to inject.
    }

    fn audience(&self, k: usize) -> u64 {
        // One flood per fixture, counted against its first op (and
        // computed here, outside every timed region).
        if k == 0 {
            METRO_HEADLINES as u64 * metro_reach(self.pool.0.population(), self.ttl)
        } else {
            0
        }
    }

    fn drive(&mut self, drive: Drive) -> u64 {
        self.pool.drive(drive)
    }

    fn step(&mut self) -> bool {
        self.pool.step()
    }

    fn tally(&self) -> Tally {
        self.pool.tally()
    }

    fn trace_log(&self) -> Option<TraceLog> {
        self.pool.0.trace_log()
    }

    fn finish(self) -> Teardown {
        let out = self.pool.0.shutdown();
        Teardown {
            tally: Tally::read(&out.counters, "rt"),
            app_deliveries: out.processes.iter().map(|p| u64::from(p.delivered())).sum(),
            app_parasites: 0,
            table_entries_mean: 0.0,
        }
    }
}

/// One op as measured.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Wall time of the drive call, milliseconds.
    pub raw_ms: f64,
    /// Host factor measured immediately before the op.
    pub host_factor: f64,
    pub ticks: u64,
    /// Allocator calls and bytes requested inside the drive window.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub collect_us: f64,
}

impl OpSample {
    /// The op's host-normalised drive time.
    pub fn norm_ms(&self) -> f64 {
        self.raw_ms / self.host_factor
    }
}

/// One fixture build as measured.
#[derive(Debug, Clone, Copy)]
pub struct BuildSample {
    pub network_ms: f64,
    pub spawn_ms: f64,
    pub shutdown_ms: f64,
    pub host_factor: f64,
    /// Heap bytes the fixture holds after set-up.
    pub live_bytes: u64,
}

/// Everything one pass over a workload measured.
#[derive(Default)]
pub struct RunData {
    pub ops: Vec<OpSample>,
    pub builds: Vec<BuildSample>,
    /// Per-op counter deltas, summed over the run.
    pub totals: Tally,
    pub audience: u64,
    pub failed: u64,
    /// Why ops failed or checks tripped (first few, for the operator).
    pub complaints: Vec<String>,
    /// False when a fixture-level output check tripped.
    pub outputs_ok: bool,
    pub in_flight_peak: u64,
    pub table_entries_mean: f64,
    /// Merged flight-recorder histograms of the last fixture.
    pub trace_log: Option<TraceLog>,
}

impl RunData {
    fn complain(&mut self, what: String) {
        if self.complaints.len() < 8 {
            self.complaints.push(what);
        }
    }
}

fn open(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    parent: Option<SpanId>,
    op: Option<u32>,
) -> Option<SpanId> {
    spans.as_mut().map(|s| s.open(name, parent, op))
}

fn close(spans: &mut Option<&mut Spans>, id: Option<SpanId>) {
    if let (Some(s), Some(id)) = (spans.as_mut(), id) {
        s.close(id);
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `ops` ops of workload `F` in a closed loop: one driver thread,
/// the next op issued when the previous one completed.
///
/// With `spans` the run is the **traced** one: every op is driven tick
/// by tick in lock step and each layer boundary records a span. Without
/// it the ops are driven exactly as a user would drive them; end-to-end
/// metrics only ever come from that mode.
pub fn run<F: Fixture>(
    spec: &Spec,
    seed: u64,
    ops: usize,
    cal: &mut Calibrator,
    trace: TraceConfig,
    mut spans: Option<&mut Spans>,
) -> RunData {
    let mut data = RunData {
        outputs_ok: true,
        ..RunData::default()
    };
    let mut op = 0usize;
    let mut fixture = 0u64;
    while op < ops {
        let fixture_seed = derive_seed(seed, fixture);
        fixture += 1;

        let live_before = alloc::snapshot().live;
        let setup = open(&mut spans, "setup", None, None);
        let part = open(&mut spans, "build_network", setup, None);
        let start = Instant::now();
        let blueprint = F::blueprint(spec, fixture_seed);
        let network_ms = ms_since(start);
        close(&mut spans, part);
        let part = open(&mut spans, "spawn", setup, None);
        let start = Instant::now();
        let mut fx = F::spawn(spec, fixture_seed, blueprint, trace);
        let spawn_ms = ms_since(start);
        close(&mut spans, part);
        close(&mut spans, setup);
        let live_bytes = alloc::snapshot().live.saturating_sub(live_before);

        let mut prev = Tally::default();
        let mut fixture_first = 0u64;
        // The build is normalised by the host factor of the op that
        // follows it: adjacent in time, and one slice fewer per fixture.
        let mut build_factor = 1.0;
        for k in 0..spec.ops_per_fixture {
            if op == ops {
                break;
            }
            let op_id = Some(op as u32);
            let host_factor = cal.host_factor();
            if k == 0 {
                build_factor = host_factor;
            }
            let root = open(&mut spans, "op", None, op_id);

            let part = open(&mut spans, "inject", root, op_id);
            fx.inject(k);
            close(&mut spans, part);

            let part = open(&mut spans, "drive", root, op_id);
            let heap_before = alloc::snapshot();
            let start = Instant::now();
            let (ticks, quiet) = if spans.is_some() {
                let budget = match spec.drive {
                    Drive::Quiescent { max_ticks } => max_ticks,
                    Drive::Window { ticks } => ticks,
                };
                let mut ticks = 0;
                let mut quiet = false;
                while ticks < budget {
                    let tick = open(&mut spans, "tick", part, op_id);
                    quiet = fx.step();
                    close(&mut spans, tick);
                    ticks += 1;
                    data.in_flight_peak = data.in_flight_peak.max(fx.in_flight());
                    if quiet && matches!(spec.drive, Drive::Quiescent { .. }) {
                        break;
                    }
                }
                (ticks, quiet)
            } else {
                let ticks = fx.drive(spec.drive);
                let quiet = match spec.drive {
                    Drive::Quiescent { max_ticks } => ticks < max_ticks,
                    Drive::Window { .. } => false,
                };
                (ticks, quiet)
            };
            let raw_ms = ms_since(start);
            let heap_after = alloc::snapshot();
            close(&mut spans, part);

            let part = open(&mut spans, "collect", root, op_id);
            let start = Instant::now();
            let now = fx.tally();
            let collect_us = ms_since(start) * 1e3;
            close(&mut spans, part);

            let part = open(&mut spans, "verify", root, op_id);
            let delta = now.minus(prev);
            prev = now;
            let audience = fx.audience(k);
            let mut failure = None;
            match spec.drive {
                Drive::Quiescent { max_ticks } => {
                    if !quiet {
                        failure = Some(format!("no quiescence within {max_ticks} ticks"));
                    } else if now.unresolved() != Some(0) {
                        failure = Some(format!("envelope ledger does not balance: {now:?}"));
                    } else if (delta.first as f64) < MIN_DELIVERY_RATIO * audience as f64 {
                        failure = Some(format!(
                            "delivered {} of an audience of {audience}",
                            delta.first
                        ));
                    }
                }
                Drive::Window { .. } => {
                    if now.unresolved().is_none() {
                        failure = Some(format!("more envelopes resolved than sent: {now:?}"));
                    }
                }
            }
            if delta.parasite > 0 {
                failure = Some(format!("{} parasite deliveries", delta.parasite));
            }
            if let Some(why) = failure {
                data.failed += 1;
                data.complain(format!("{} op {op}: {why}", spec.name));
            }
            close(&mut spans, part);
            close(&mut spans, root);

            data.totals.add(delta);
            data.audience += audience;
            fixture_first += delta.first;
            data.ops.push(OpSample {
                raw_ms,
                host_factor,
                ticks,
                allocs: heap_after.allocs - heap_before.allocs,
                alloc_bytes: heap_after.allocated - heap_before.allocated,
                collect_us,
            });
            op += 1;
        }

        data.trace_log = fx.trace_log();
        let part = open(&mut spans, "shutdown", None, None);
        let start = Instant::now();
        let end = fx.finish();
        let shutdown_ms = ms_since(start);
        close(&mut spans, part);
        data.builds.push(BuildSample {
            network_ms,
            spawn_ms,
            shutdown_ms,
            host_factor: build_factor,
            live_bytes,
        });
        data.table_entries_mean = end.table_entries_mean;

        // Fixture-level output checks: the final ledger is exact (the
        // runtime books whatever was still in flight as
        // `dropped_shutdown`), the application saw what the counters
        // say it saw, and nobody received a topic it never asked for.
        if end.tally.unresolved() != Some(0) {
            data.outputs_ok = false;
            data.complain(format!("final ledger does not balance: {:?}", end.tally));
        }
        if end.app_deliveries != fixture_first || end.tally.first != fixture_first {
            data.outputs_ok = false;
            data.complain(format!(
                "application saw {} deliveries, counters {} (final {})",
                end.app_deliveries, fixture_first, end.tally.first
            ));
        }
        if end.app_parasites != 0 {
            data.outputs_ok = false;
            data.complain(format!("{} parasite receptions", end.app_parasites));
        }
    }
    data
}

/// How far the two substrates may disagree on a wave's envelope and
/// delivery counts (measured: 0.0–0.3% over 32 events).
const PARITY_TOLERANCE: f64 = 0.02;

/// The same `ops` wave ops through the simulator and through the
/// runtime at one worker — the cross-substrate output check of the
/// traced run. The counts agree closely but not exactly: the
/// substrates deliver a tick's messages in different orders, and
/// daMulticast draws its gossip targets from the receiving process's
/// RNG, so the order decides who is drawn.
pub fn wave_parity(seed: u64, ops: usize, cal: &mut Calibrator) -> Result<(Tally, Tally), String> {
    let off = TraceConfig::off();
    let one_worker = Spec {
        workers: 1,
        ..LIVE_WAVE
    };
    let sim = run::<SimWave>(&SIM_WAVE, seed, ops, cal, off, None);
    let live = run::<LiveWave>(&one_worker, seed, ops, cal, off, None);
    let apart = |a: u64, b: u64| a.abs_diff(b) as f64 > PARITY_TOLERANCE * a.max(b) as f64;
    if sim.failed + live.failed > 0
        || !(sim.outputs_ok && live.outputs_ok)
        || apart(sim.totals.sent, live.totals.sent)
        || apart(sim.totals.first, live.totals.first)
    {
        return Err(format!(
            "live_wave at 1 worker diverged from sim_wave: sim {:?} live {:?}",
            sim.totals, live.totals
        ));
    }
    Ok((sim.totals, live.totals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_counts_the_lattice_cone() {
        // ttl 24 on 2^17 (skip 363): (a, b) with 1 <= a + b <= 24 never
        // wrap or collide: 25 * 26 / 2 - 1 positions.
        assert_eq!(metro_reach(131_072, 24), 324);
        // ttl 254 blankets 16,384 processes.
        assert_eq!(metro_reach(16_384, 254), 16_383);
    }
}
