//! What one churn tick of the lifecycle walk costs: `LifecycleController::
//! begin_tick` alone, at the benchmark's `metro_churn` population and
//! rates (131,072 processes on one stripe, 0.02% crash and 5% recover a
//! tick, ~520 down at a time, ~52 transitions a tick).
//!
//! After 512 warm-up ticks (the crashed list reaches its stationary
//! size and every buffer its capacity), the example times `RUNS` runs of
//! `TICKS` consecutive ticks each and prints the best and the median µs
//! a tick, beside the host's CPU count and model. This is the figure the
//! `lifecycle` module doc and ARCHITECTURE.md quote for the walk.
//!
//! Run with: `cargo run --release --example churn_tick`
//! (pass `--small` for a CI-sized run of 3 × 2,000 ticks).

use da_core::{FailureModel, LifecycleController};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const POPULATION: usize = 131_072;
const WARM_UP: u64 = 512;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let (runs, ticks) = if small { (3, 2_000) } else { (6, 20_000) };
    let plan = FailureModel::Churn {
        crash_probability: 0.0002,
        recover_probability: 0.05,
    }
    .materialize(POPULATION, 821);
    let mut stripe = LifecycleController::new(Arc::new(plan), 0, 1, POPULATION);
    for tick in 0..WARM_UP {
        black_box(stripe.begin_tick(tick));
    }

    let mut tick = WARM_UP;
    let mut transitions = 0;
    let mut per_tick: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ticks {
                let t = black_box(stripe.begin_tick(tick));
                transitions += t.churn_crashes + t.churn_recoveries;
                tick += 1;
            }
            start.elapsed().as_secs_f64() * 1e6 / ticks as f64
        })
        .collect();
    per_tick.sort_by(f64::total_cmp);
    let timed = runs as u64 * ticks;
    assert!(
        transitions > timed * 40,
        "{transitions} churn transitions in {timed} ticks: the plan is not churning"
    );

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "churn tick: {POPULATION} processes, {WARM_UP} warm-up ticks, {runs} runs × {ticks} ticks"
    );
    println!("host: {nproc} CPUs, {}", cpu_model());
    println!(
        "transitions a tick: {:.1}; processes down at the end: {}",
        transitions as f64 / timed as f64,
        POPULATION - stripe.alive_count()
    );
    let median = (per_tick[(runs - 1) / 2] + per_tick[runs / 2]) / 2.0;
    println!("µs a tick: best {:.2}, median {median:.2}", per_tick[0]);
}
