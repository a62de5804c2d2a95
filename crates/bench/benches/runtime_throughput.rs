//! Criterion bench for the **live runtime**: the same bench-scale
//! topology the figure benches use (4/20/100), but executed on the
//! `da-runtime` worker pool instead of the simulator.
//!
//! Three kinds of rows:
//!
//! * `live_event` — the end-to-end cost of serving one publication:
//!   pool spin-up, the publication driven to quiescence, graceful
//!   shutdown, everything timed (topology construction included, as a
//!   fixed reference cost).
//! * `live_burst16` / `sim_burst16` — **sustained delivery**: a
//!   16-event burst driven to quiescence under the bounded-lag
//!   scheduler, with fixture construction (topology build, pool
//!   spin-up, publication injection) excluded from the timing via
//!   `iter_batched` on both substrates, so the row isolates the
//!   scheduler + transport + protocol hot path the perf work targets.
//!   The simulator row is the single-threaded reference on the
//!   identical workload; `live_burst16_w{1,2,4,8}` sweeps the pool
//!   width so scaling regressions show up as rows, not just absolute
//!   times (the headline `live_burst16` row runs at
//!   4 workers), and `live_burst16_best` re-emits the fastest sweep
//!   point as an alias row. `live_churn16` / `sim_churn16` repeat the
//!   burst with the shared churn failure plan active, so the lifecycle
//!   scan and the crashed-inbox drain stay visible.
//!   `trace_overhead_off` / `trace_overhead_full` rerun the headline
//!   burst with the flight recorder disabled vs capturing every
//!   envelope verdict, so the recorder's zero-cost-when-off claim and
//!   its full-capture price are both tracked rows.
//! * `runtime_batching_*` — transport isolation: the same envelope
//!   stream pushed one SPSC lane push per envelope versus coalesced
//!   into one pooled batch per destination worker per tick (the
//!   lock-free data plane's hot path, buffer recycling included).
//!
//! `DA_BENCH_JSON=<file> cargo bench -p da-bench --bench
//! runtime_throughput -- --quick` emits the rows as JSON. The gated
//! system benchmark is the standalone `benchmark/` package.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use da_bench::bench_sizes;
use da_core::channel::{ChannelConfig, Latency};
use da_core::failure::FailureModel;
use da_core::ProcessId;
use da_runtime::{lane_matrix, Envelope, FaultyRouter, Runtime, RuntimeConfig, TraceConfig};
use da_simnet::{Engine, SimConfig};
use damulticast::{metro_population, DaProcess, MetroProcess, ParamMap, StaticNetwork};
use std::hint::black_box;

const MAX_TICKS: u64 = 64;

/// Events per burst in the sustained-delivery rows.
const BURST: usize = 16;

/// Pool width of the headline `live_burst16` row (also part of the
/// sweep, so the baseline records it under both names).
const HEADLINE_WORKERS: usize = 4;

/// Envelopes per simulated tick in the transport pump (the coalescing
/// window the batched path flushes on).
const PUMP_TICK: usize = 64;

/// Pushes `msgs` envelopes through the lock-free lane matrix to
/// `workers` inboxes and drains them, either one `Batch::One` lane push
/// per envelope (the unbatched reference) or coalesced per destination
/// worker per tick (the pooled `FaultyRouter` path, buffer recycling
/// included). Returns the envelopes received.
///
/// Lanes are bounded, so the pump drains every coalescing window before
/// filling the next; one window always fits (`PUMP_TICK + 1` capacity).
fn transport_pump(msgs: usize, workers: usize, batched: bool) -> u64 {
    let (mut hubs, mut inboxes) = lane_matrix::<u64>(workers, PUMP_TICK + 1);
    let mut hub = hubs.remove(0); // hubs[1..] stay alive: lanes stay open
    let mut received = 0u64;
    if batched {
        let mut faulty = FaultyRouter::new(hub, ChannelConfig::reliable(), 1);
        for i in 0..msgs {
            let tick = (i / PUMP_TICK) as u64;
            faulty.send(ProcessId(0), ProcessId((i % 97) as u32), tick, i as u64);
            if i % PUMP_TICK == PUMP_TICK - 1 {
                faulty.flush();
                for inbox in &mut inboxes {
                    received += inbox.drain();
                }
            }
        }
        faulty.flush();
    } else {
        for i in 0..msgs {
            let tick = (i / PUMP_TICK) as u64;
            let env = Envelope {
                from: ProcessId(0),
                to: ProcessId((i % 97) as u32),
                sent_tick: tick,
                due_tick: tick + 1,
                msg: i as u64,
            };
            hub.send(env).expect("pump lanes stay open");
            if i % PUMP_TICK == PUMP_TICK - 1 {
                for inbox in &mut inboxes {
                    received += inbox.drain();
                }
            }
        }
    }
    for inbox in &mut inboxes {
        received += inbox.drain();
    }
    received
}

fn network(seed: u64) -> StaticNetwork {
    StaticNetwork::linear(&bench_sizes(), ParamMap::default(), seed)
        .expect("bench topology is valid")
}

/// The churn model of the `*_churn16` rows: gentle (1% crash / 20%
/// recover per tick, ≈95% stationary aliveness), enough to keep the
/// per-tick lifecycle scan and the crashed-inbox drain on the measured
/// path.
fn bench_churn() -> FailureModel {
    FailureModel::Churn {
        crash_probability: 0.01,
        recover_probability: 0.2,
    }
}

/// A live pool with `events` publications already injected from
/// distinct leaf members — the fixture of the sustained-delivery rows.
fn live_fixture(
    seed: u64,
    workers: usize,
    events: usize,
    failure: FailureModel,
    trace: TraceConfig,
) -> Runtime<DaProcess> {
    let net = network(seed);
    let leaf = net.groups().last().expect("leaf group").members.clone();
    let config = RuntimeConfig::default()
        .with_seed(seed)
        .with_workers(workers)
        .with_failures(failure)
        .with_trace(trace);
    let mut rt = Runtime::spawn(config, net.into_processes());
    for i in 0..events {
        rt.with_process_mut(leaf[i % leaf.len()], |p| p.publish("bench"));
    }
    rt
}

/// The identical fixture under the simulator.
fn sim_fixture(seed: u64, events: usize, failure: FailureModel) -> Engine<DaProcess> {
    let net = network(seed);
    let leaf = net.groups().last().expect("leaf group").members.clone();
    let config = SimConfig::default().with_seed(seed).with_failures(failure);
    let mut engine: Engine<DaProcess> = Engine::new(config, net.into_processes());
    for i in 0..events {
        engine.process_mut(leaf[i % leaf.len()]).publish("bench");
    }
    engine
}

/// Bench-scale metropolis: the `live_metropolis` example's workload
/// (flat-state gossip over computed overlay links, lossy multi-tick
/// channel, churn) at a population small enough for a tracked row —
/// the flat-memory hot path (slab store, stateless edge draws, ring
/// wheel) without the full protocol stack in front of it.
const METRO_POPULATION: usize = 16_384;
const METRO_HEADLINES: usize = 16;
const METRO_TTL: u8 = 12;

/// The soak's channel: 5% loss, 1–3 tick latency — every send takes a
/// stateless `(edge, tick, occurrence)` draw and multi-tick envelopes
/// ride the delay-wheel ring.
fn metro_channel() -> ChannelConfig {
    ChannelConfig::reliable()
        .with_success_probability(0.95)
        .with_latency(Latency::UniformRounds { min: 1, max: 3 })
}

fn live_metro_fixture(seed: u64, workers: usize) -> Runtime<MetroProcess> {
    let config = RuntimeConfig::default()
        .with_seed(seed)
        .with_workers(workers)
        .with_channel(metro_channel())
        .with_failures(bench_churn());
    Runtime::spawn(
        config,
        metro_population(METRO_POPULATION, METRO_HEADLINES, METRO_TTL),
    )
}

fn sim_metro_fixture(seed: u64) -> Engine<MetroProcess> {
    let config = SimConfig::default()
        .with_seed(seed)
        .with_channel(metro_channel())
        .with_failures(bench_churn());
    Engine::new(
        config,
        metro_population(METRO_POPULATION, METRO_HEADLINES, METRO_TTL),
    )
}

/// Publishes one event and drives it to quiescence end-to-end (spin-up
/// and shutdown included) — the `live_event` row.
fn live_event_run(seed: u64) -> u64 {
    let mut rt = live_fixture(seed, 2, 1, FailureModel::None, TraceConfig::off());
    rt.run_until_quiescent(MAX_TICKS);
    let out = rt.shutdown();
    out.counters.get("rt.delivered")
}

fn runtime_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_throughput");
    let population: usize = bench_sizes().iter().sum();

    // Pool spin-up + one event to quiescence + graceful shutdown: the
    // end-to-end cost of serving one publication live.
    group.bench_with_input(
        BenchmarkId::new("live_event", population),
        &population,
        |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(live_event_run(seed))
            });
        },
    );

    // Sustained delivery: a 16-event burst to quiescence, fixture
    // excluded. The pool (with its threads still up) is returned from
    // the routine so teardown is excluded from the timing too.
    let mut live_burst_row = |label: String,
                              workers: usize,
                              failure: fn() -> FailureModel,
                              trace: fn() -> TraceConfig|
     -> Option<(f64, u64)> {
        group.bench_with_input(BenchmarkId::new(label, population), &population, |b, _| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed = seed.wrapping_add(1);
                    live_fixture(seed, workers, BURST, failure(), trace())
                },
                |mut rt| {
                    black_box(rt.run_until_quiescent(MAX_TICKS));
                    rt
                },
                BatchSize::SmallInput,
            );
        });
        group.last_measurement()
    };
    // The ascending sweep runs first so the headline row measures the
    // warmed steady state rather than paying the suite's one-time
    // warm-up costs. The fastest sweep point is re-emitted below as the
    // `live_burst16_best` alias row — the number scaling work should
    // move, whatever pool width achieves it on this machine.
    let mut best: Option<(f64, u64)> = None;
    for workers in [1usize, 2, 4, 8] {
        let row = live_burst_row(
            format!("live_burst16_w{workers}"),
            workers,
            || FailureModel::None,
            TraceConfig::off,
        );
        if let Some((ns, iters)) = row {
            if best.is_none_or(|(b, _)| ns < b) {
                best = Some((ns, iters));
            }
        }
    }
    let _ = live_burst_row(
        "live_burst16".into(),
        HEADLINE_WORKERS,
        || FailureModel::None,
        TraceConfig::off,
    );
    // The same burst with the lifecycle controller live: per-tick churn
    // draws, crashed-inbox drains, recovery hooks all on the hot path.
    let _ = live_burst_row(
        "live_churn16".into(),
        HEADLINE_WORKERS,
        bench_churn,
        TraceConfig::off,
    );
    // Flight-recorder overhead on the headline burst: `_off` is the
    // shipped default (a `None` branch on the hot path — the baseline
    // diff against `live_burst16` tracks the "zero cost when off"
    // claim), `_full` pays per-envelope ring-buffer appends plus the
    // tick-boundary shard publishes.
    let _ = live_burst_row(
        "trace_overhead_off".into(),
        HEADLINE_WORKERS,
        || FailureModel::None,
        TraceConfig::off,
    );
    let _ = live_burst_row(
        "trace_overhead_full".into(),
        HEADLINE_WORKERS,
        || FailureModel::None,
        TraceConfig::full,
    );
    if let Some((ns, iters)) = best {
        group.report_alias(BenchmarkId::new("live_burst16_best", population), ns, iters);
    }

    // Simulator reference: the same topology and burst, single-threaded
    // deterministic rounds, fixture equally excluded.
    let mut sim_burst_row = |label: &'static str, failure: fn() -> FailureModel| {
        group.bench_with_input(BenchmarkId::new(label, population), &population, |b, _| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed = seed.wrapping_add(1);
                    sim_fixture(seed, BURST, failure())
                },
                |mut engine| {
                    black_box(engine.run_until_quiescent(MAX_TICKS));
                    engine
                },
                BatchSize::SmallInput,
            );
        });
    };
    sim_burst_row("sim_burst16", || FailureModel::None);
    sim_burst_row("sim_churn16", bench_churn);

    // Metropolis rows: the flat-memory soak workload at bench scale,
    // identical on both substrates (fixture excluded from timing).
    group.bench_with_input(
        BenchmarkId::new("live_metropolis", METRO_POPULATION),
        &METRO_POPULATION,
        |b, _| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed = seed.wrapping_add(1);
                    live_metro_fixture(seed, HEADLINE_WORKERS)
                },
                |mut rt| {
                    black_box(rt.run_until_quiescent(MAX_TICKS));
                    rt
                },
                BatchSize::SmallInput,
            );
        },
    );
    group.bench_with_input(
        BenchmarkId::new("sim_metropolis", METRO_POPULATION),
        &METRO_POPULATION,
        |b, _| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed = seed.wrapping_add(1);
                    sim_metro_fixture(seed)
                },
                |mut engine| {
                    black_box(engine.run_until_quiescent(MAX_TICKS));
                    engine
                },
                BatchSize::SmallInput,
            );
        },
    );

    // Transport isolation: the same 8192-envelope stream to a 4-worker
    // pool, per-envelope channel sends vs per-tick coalesced batches —
    // the measured win of the PR 3 Router batching.
    const PUMP_MSGS: usize = 8192;
    group.bench_with_input(
        BenchmarkId::new("runtime_batching_unbatched", PUMP_MSGS),
        &PUMP_MSGS,
        |b, &msgs| {
            b.iter(|| black_box(transport_pump(msgs, 4, false)));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("runtime_batching_batched", PUMP_MSGS),
        &PUMP_MSGS,
        |b, &msgs| {
            b.iter(|| black_box(transport_pump(msgs, 4, true)));
        },
    );

    group.finish();
}

criterion_group!(benches, runtime_throughput);
criterion_main!(benches);
