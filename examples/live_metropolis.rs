//! A million live processes on the worker pool — the memory-at-scale
//! soak. The [`damulticast::MetroProcess`] gossip protocol (a few
//! machine words of state, computed overlay links) runs on `da-runtime`
//! with churn active and a lossy, multi-tick-latency channel, so every
//! flat-memory structure the substrate relies on is exercised at the
//! population the paper's table-size claims are *about*:
//!
//! * the slab `ProcessStore` with its lazily-derived RNG slots (the
//!   overlay draws no per-process randomness, so RNG residency stays
//!   at zero);
//! * stateless `(edge, tick, occurrence)` channel draws — no per-edge
//!   RNG map at any population;
//! * the ring-buffer delay wheel sized from `network.max_latency()`;
//! * the cache-line-packed watermark grid.
//!
//! Asserted: the exact envelope ledger (every sent message ends in
//! exactly one terminal bucket) and a bounded footprint per process,
//! both resident after spawn and at the peak of the whole run, measured
//! from `/proc/self/status`.
//!
//! Run with: `cargo run --release --example live_metropolis`
//! (pass `--small` for the CI-sized 100k soak).

use da_core::{ChannelConfig, FailureModel, Latency};
use da_runtime::{Runtime, RuntimeConfig};
use damulticast::metro_population;
use std::time::Instant;

/// Kilobytes for `field` (`VmRSS` / `VmHWM`) from `/proc/self/status`;
/// 0 where procfs is unavailable.
fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let population: usize = if small { 100_000 } else { 1_000_000 };
    let headlines = 64usize;
    let ttl = 24u8;
    let ticks = if small { 24 } else { 32 };
    let seed = 42u64;

    let baseline_kb = proc_status_kb("VmRSS");
    let build = Instant::now();
    let procs = metro_population(population, headlines, ttl);

    // Lossy, multi-tick-latency channel + churn: the stateless draw
    // path, the delay-wheel ring, and the lifecycle scan all on the
    // hot path at full population.
    let config = RuntimeConfig::default()
        .with_seed(seed)
        .with_workers(2)
        .with_channel(
            ChannelConfig::reliable()
                .with_success_probability(0.95)
                .with_latency(Latency::UniformRounds { min: 1, max: 3 }),
        )
        .with_failures(FailureModel::Churn {
            crash_probability: 0.0002,
            recover_probability: 0.05,
        });
    let mut rt = Runtime::spawn(config, procs);
    let spawned_kb = proc_status_kb("VmRSS");
    println!(
        "metropolis: {population} live processes on {} workers \
         ({:.1} ms to build + spawn)",
        rt.workers(),
        build.elapsed().as_secs_f64() * 1e3
    );

    let soak = Instant::now();
    rt.run_ticks(ticks);
    let out = rt.shutdown();
    let elapsed = soak.elapsed();
    let peak_kb = proc_status_kb("VmHWM");

    // ── Exact envelope ledger ────────────────────────────────────────
    let sent = out.counters.get("rt.sent");
    let delivered = out.counters.get("rt.delivered");
    let buckets = [
        ("delivered", delivered),
        ("dropped_channel", out.counters.get("rt.dropped_channel")),
        (
            "dropped_partitioned",
            out.counters.get("rt.dropped_partitioned"),
        ),
        ("dropped_crashed", out.counters.get("rt.dropped_crashed")),
        (
            "dropped_observed_failed",
            out.counters.get("rt.dropped_observed_failed"),
        ),
        ("dropped_shutdown", out.counters.get("rt.dropped_shutdown")),
        ("dropped_closed", out.counters.get("rt.dropped_closed")),
    ];
    let accounted: u64 = buckets.iter().map(|(_, v)| v).sum();
    assert_eq!(
        accounted, sent,
        "ledger must be exact: {sent} sent vs buckets {buckets:?}"
    );
    assert!(sent > 0, "the flood must produce traffic");

    let reached = out
        .processes
        .iter()
        .filter(|p| p.headlines_seen() > 0)
        .count();
    let crashes = out.counters.get("rt.churn_crashes");
    let recoveries = out.counters.get("rt.churn_recoveries");

    println!("\nledger ({ticks} ticks): {sent} sent =");
    for (name, v) in buckets {
        println!("  {v:>9}  {name}");
    }
    println!(
        "\nchurn: {crashes} crashes, {recoveries} recoveries; \
         {reached} processes reached by the {headlines} headlines"
    );

    // ── Memory at scale ──────────────────────────────────────────────
    let resident_kb = spawned_kb.saturating_sub(baseline_kb);
    let per_process = |kb: u64| kb as f64 * 1024.0 / population as f64;
    let bytes_per_process = per_process(resident_kb);
    let peak_per_process = per_process(peak_kb.saturating_sub(baseline_kb));
    println!(
        "\nmemory: {:.1} MiB resident after spawn ({bytes_per_process:.0} B/process), \
         {:.1} MiB peak over the whole soak ({peak_per_process:.0} B/process)",
        resident_kb as f64 / 1024.0,
        peak_kb as f64 / 1024.0
    );
    println!(
        "{:.2} s soak wall clock, {:.0} process-ticks/s",
        elapsed.as_secs_f64(),
        population as f64 * ticks as f64 / elapsed.as_secs_f64()
    );

    // Bounded RSS: a process costs the substrate 37 B — a 32 B
    // `MetroProcess`, a 4 B stream slot left empty (this overlay draws
    // nothing) and a 1 B lifecycle status. Under 64 B after spawn and
    // under 96 B at the peak (wheel, lanes and shutdown's hand-back
    // included) leave room for allocator slack, and fail loudly if a
    // per-process or per-edge map or a copy of the population sneaks
    // back into the substrate.
    if resident_kb > 0 {
        assert!(
            bytes_per_process < 64.0,
            "memory per process after spawn blew the budget: {bytes_per_process:.0} B"
        );
        assert!(
            peak_per_process < 96.0,
            "peak memory per process blew the budget: {peak_per_process:.0} B"
        );
    }
    println!("exact ledger + bounded footprint: the metropolis holds");
}
