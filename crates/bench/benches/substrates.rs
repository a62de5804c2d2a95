//! Micro-benchmarks of the substrates: topic-hierarchy operations,
//! partial-view maintenance, dissemination planning, and one engine round
//! — the per-message hot paths behind every figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use da_core::{rng_from_seed, ProcessId};
use da_membership::{FlatMembership, MembershipParams, PartialView};
use da_topics::TopicHierarchy;
use damulticast::{plan_dissemination, DisseminationPlan, SuperEntry, SuperTable, TopicParams};
use std::hint::black_box;

fn topics(c: &mut Criterion) {
    let mut group = c.benchmark_group("topics");
    let (h, ids) = TopicHierarchy::linear_chain(8);
    group.bench_function("includes_depth8", |b| {
        b.iter(|| black_box(h.includes(ids[0], ids[7])));
    });
    group.bench_function("ancestors_depth8", |b| {
        b.iter(|| black_box(h.ancestors(ids[7]).count()));
    });
    let mut big = TopicHierarchy::new();
    for i in 0..1000 {
        big.insert(&format!(".a{}.b{}.c{}", i % 10, i % 100, i))
            .unwrap();
    }
    group.bench_function("resolve_in_1000_topics", |b| {
        b.iter(|| black_box(big.resolve(".a5.b55.c555")));
    });
    group.finish();
}

fn membership(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership");
    let mut rng = rng_from_seed(1);
    let mut view = PartialView::new(ProcessId(0), 28);
    for i in 1..=28u32 {
        view.insert(ProcessId(i), &mut rng);
    }
    group.bench_function("view_sample_8_of_28", |b| {
        b.iter(|| black_box(view.sample(8, &mut rng)));
    });
    group.bench_function("view_insert_evict", |b| {
        let mut i = 100u32;
        b.iter(|| {
            i += 1;
            black_box(view.insert(ProcessId(i), &mut rng))
        });
    });
    let params = MembershipParams::paper_default(1000);
    let peers: Vec<ProcessId> = (1..=28).map(ProcessId).collect();
    let mut member = FlatMembership::with_static_view(ProcessId(0), params, &peers, &mut rng);
    group.bench_function("membership_gossip_round", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += params.gossip_period;
            black_box(member.on_round(round, &mut rng))
        });
    });
    group.finish();
}

fn dissemination(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissemination");
    let mut rng = rng_from_seed(2);
    let params = TopicParams::paper_default();
    let table: Vec<ProcessId> = (1..=28).map(ProcessId).collect();
    let mut stable = SuperTable::new(ProcessId(0), 3);
    for i in 0..3 {
        stable.insert(
            SuperEntry {
                pid: ProcessId(1000 + i),
                topic: da_topics::TopicId::ROOT,
            },
            &mut rng,
        );
    }
    let mut plan = DisseminationPlan::default();
    for s in [100usize, 1000, 10_000] {
        group.bench_with_input(BenchmarkId::new("plan", s), &s, |b, &s| {
            b.iter(|| {
                plan_dissemination(&params, s, &table, &stable, &mut rng, &mut plan);
                black_box(plan.message_count())
            });
        });
    }
    group.finish();
}

fn engine_round(c: &mut Criterion) {
    use da_bench::bench_scenario;
    use da_harness::scenario::{run_scenario, FailureKind};
    c.bench_function("full_scenario_124_processes", |b| {
        let config = bench_scenario(FailureKind::None, 1.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(run_scenario(&config, seed).rounds)
        });
    });
}

criterion_group!(benches, topics, membership, dissemination, engine_round);
criterion_main!(benches);
