//! Criterion bench for the **Sec. VI-E tables** pipelines: one
//! publication per algorithm (complexity/parasite rows) plus the pure-math
//! tuning table.

use criterion::{criterion_group, criterion_main, Criterion};
use da_baselines::{
    build_broadcast_network, build_hierarchical_network, build_multicast_network, InterestMap,
};
use da_bench::{bench_scenario, bench_sizes};
use da_core::ProcessId;
use da_harness::experiments::tables::run_tuning_table;
use da_harness::scenario::{run_scenario, FailureKind};
use da_membership::FanoutRule;
use da_simnet::{Engine, SimConfig};
use std::hint::black_box;

fn table_rows(c: &mut Criterion) {
    let sizes = bench_sizes();
    let n: usize = sizes.iter().sum();
    let interests = InterestMap::linear(&sizes);
    let fanout = FanoutRule::LnPlusC { c: 5.0 };
    let publisher = ProcessId::from_index(n - 1);

    let mut group = c.benchmark_group("table_complexity_rows");

    group.bench_function("damulticast", |b| {
        let config = bench_scenario(FailureKind::None, 1.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(run_scenario(&config, seed).total_event_messages)
        });
    });

    group.bench_function("broadcast", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let procs = build_broadcast_network(&interests, 3.0, fanout, seed).unwrap();
            let mut engine = Engine::new(SimConfig::default().with_seed(seed), procs);
            engine.process_mut(publisher).publish("bench");
            engine.run_until_quiescent(64);
            black_box(engine.counters().get("bc.sent"))
        });
    });

    group.bench_function("multicast", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let procs = build_multicast_network(&interests, 3.0, fanout, seed).unwrap();
            let mut engine = Engine::new(SimConfig::default().with_seed(seed), procs);
            engine.process_mut(publisher).publish("bench");
            engine.run_until_quiescent(64);
            black_box(engine.counters().get("mc.sent"))
        });
    });

    group.bench_function("hierarchical", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let procs =
                build_hierarchical_network(&interests, 8, 3.0, fanout, fanout, seed).unwrap();
            let mut engine = Engine::new(SimConfig::default().with_seed(seed), procs);
            engine.process_mut(publisher).publish("bench");
            engine.run_until_quiescent(64);
            black_box(engine.counters().get("hc.sent_intra"))
        });
    });

    group.finish();

    c.bench_function("table_tuning_analytic", |b| {
        b.iter(|| black_box(run_tuning_table(3, 1110, 1000, 33)));
    });
}

criterion_group!(benches, table_rows);
criterion_main!(benches);
