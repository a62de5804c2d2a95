//! The dynamic protocol under churn — **live**. A soak of the full
//! dynamic stack (bootstrap + membership + maintenance) running as
//! actors on the `da-runtime` worker pool while the shared
//! `da_core::failure` plan continuously crashes and recovers processes:
//! the scenario the paper's Sec. III-A model assumes ("processes might
//! crash and recover") executed on real threads.
//!
//! Three-level linear hierarchy, every table discovered at runtime (no
//! static wiring): processes join through a handful of same-group
//! contacts, flood the overlay for super contacts, and keep their
//! tables fresh through maintenance — all while the failure plan churns
//! the population. Recovered processes re-enter through
//! `on_recover` (the protocol restarts `FIND_SUPER_CONTACT`).
//!
//! Run with: `cargo run --release --example live_churn`
//! (pass `--small` for a CI-sized population; `--crash <p>` /
//! `--recover <p>` to override the per-tick churn rates).
//!
//! Asserted at every churn rate: zero parasite deliveries, and exact
//! mid-flight crash accounting — every envelope ends in exactly one of
//! delivered / `rt.dropped_channel` / `rt.dropped_crashed` /
//! `rt.dropped_shutdown`.

use da_core::{FailureModel, ProcessId};
use da_runtime::{Runtime, RuntimeConfig};
use damulticast::{DynamicNetwork, EventId, ParamMap, TopicParams};
use std::time::Instant;

/// Parses `--flag <p>` probabilities from the argument list.
fn prob_from_args(flag: &str, default: f64) -> f64 {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == flag {
            let value = args
                .next()
                .unwrap_or_else(|| panic!("{flag} needs a probability"));
            let p: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("{flag} {value}: not a number"));
            assert!((0.0..1.0).contains(&p), "{flag} {p}: need 0 ≤ p < 1");
            return p;
        }
    }
    default
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = std::env::args().any(|a| a == "--small");
    let crash = prob_from_args("--crash", 0.01);
    let recover = prob_from_args("--recover", 0.2);
    let sizes: &[usize] = if small { &[4, 20, 60] } else { &[10, 100, 900] };
    let population: usize = sizes.iter().sum();
    let seed = 7u64;

    // Aggressive maintenance (period 5, 2-tick ping timeout) so stale
    // tables left behind by churn are repaired within the soak, plus
    // pinned-high dissemination knobs for redundancy under failures.
    let params = ParamMap::uniform(TopicParams {
        maintenance_period: 5,
        ping_timeout: 2,
        g: 15.0,
        a: 3.0,
        ..TopicParams::paper_default()
    });
    let net = DynamicNetwork::linear(sizes, params, seed)?;
    let leaves = net.groups().last().expect("three levels").members.clone();

    let failure = FailureModel::Churn {
        crash_probability: crash,
        recover_probability: recover,
    };
    // The identical plan the runtime will materialise — replayed via
    // `FailurePlan::alive_at` so the soak can pick publishers that are
    // alive at their publish tick (fates are stateless `(pid, tick)`
    // draws, so this replay is exact).
    let plan = failure.materialize(population, seed);
    let alive_at = |pid: ProcessId, at_tick: u64| plan.alive_at(pid, at_tick);

    let workers = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .max(4);
    let config = RuntimeConfig::default()
        .with_seed(seed)
        .with_workers(workers)
        .with_failures(failure);
    let start = Instant::now();
    let mut rt = Runtime::spawn(config, net.into_processes());
    println!(
        "churn soak: {population} dynamic processes on {} workers, \
         crash {crash} / recover {recover} per tick \
         (stationary aliveness {:.0}%)",
        rt.workers(),
        recover / (crash + recover) * 100.0
    );

    // Let bootstrap + membership settle under churn, then publish one
    // story per phase from a leaf that the plan says is alive.
    rt.run_ticks(40);
    let mut tick = 40u64;
    let mut stories: Vec<EventId> = Vec::new();
    let phases = if small { 4 } else { 8 };
    for i in 0..phases {
        if let Some(&p) = leaves
            .iter()
            .skip(i * leaves.len() / phases)
            .find(|&&p| alive_at(p, tick))
        {
            stories.push(rt.with_process_mut(p, move |proc| proc.publish(format!("story {i}"))));
        }
        rt.run_ticks(10);
        tick += 10;
    }
    rt.run_ticks(30);
    let out = rt.shutdown();
    let elapsed = start.elapsed();

    let crashes = out.counters.get("rt.churn_crashes");
    let recoveries = out.counters.get("rt.churn_recoveries");
    let alive_end = out.statuses.iter().filter(|s| s.is_alive()).count();
    println!(
        "\nchurn: {crashes} crashes, {recoveries} recoveries; \
         {alive_end}/{population} alive at shutdown"
    );

    let surviving: Vec<ProcessId> = leaves
        .iter()
        .copied()
        .filter(|&p| out.statuses[p.index()].is_alive())
        .collect();
    println!(
        "\ndelivery among the {} surviving leaf processes:",
        surviving.len()
    );
    let mut total = 0.0;
    for (i, &id) in stories.iter().enumerate() {
        let got = surviving
            .iter()
            .filter(|&&p| out.processes[p.index()].has_delivered(id))
            .count();
        let ratio = got as f64 / surviving.len().max(1) as f64;
        total += ratio;
        println!("  story {i}   {got:>4}/{} ({ratio:.3})", surviving.len());
    }
    let mean = total / stories.len().max(1) as f64;

    // Exact envelope accounting and the paper's invariant, asserted at
    // any churn rate.
    let sent = out.counters.get("rt.sent");
    let delivered = out.counters.get("rt.delivered");
    let dropped_crashed = out.counters.get("rt.dropped_crashed");
    let dropped_shutdown = out.counters.get("rt.dropped_shutdown");
    let accounted = delivered
        + out.counters.get("rt.dropped_channel")
        + dropped_crashed
        + dropped_shutdown
        + out.counters.get("rt.dropped_closed");
    assert_eq!(accounted, sent, "every envelope in exactly one bucket");
    assert_eq!(out.counters.get("da.parasite"), 0, "parasite delivery");
    assert!(
        mean > 0.5,
        "mean delivery among survivors collapsed: {mean:.3}"
    );

    println!(
        "\ntransport: {sent} sent = {delivered} delivered + {dropped_crashed} to crashed \
         + {dropped_shutdown} in flight at shutdown"
    );
    println!(
        "{:.1} ms wall clock, {:.0} msg/s",
        elapsed.as_secs_f64() * 1e3,
        sent as f64 / elapsed.as_secs_f64()
    );
    println!("mean delivery ratio among survivors: {mean:.3}");
    println!("parasite deliveries: 0 — the invariant holds under churn, live");
    Ok(())
}
