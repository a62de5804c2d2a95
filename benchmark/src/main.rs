//! The repository's system benchmark: four count-bounded,
//! host-normalised workloads over both substrates, ten end-to-end
//! metrics, a per-layer ladder and a traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1|OUT.json] [--smoke]
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). The exit code is non-zero when an output
//! check fails.

mod affinity;
mod alloc;
mod calib;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use affinity::Pin;
use calib::Calibrator;
use da_core::trace::TraceConfig;
use report::{Outcome, Rows};
use spans::Spans;
use stats::{mean, median, percentile, ratio};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{BuildSample, Fixture, LiveWave, Metro, OpSample, RunData, SimWave, Spec};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where `--trace 1` writes the span file, relative to the working
/// directory (the repository root when run through `BENCHMARK.json`).
const DEFAULT_TRACE_DIR: &str = "benchmark/out";

/// Ops per workload in a `--smoke` pass.
const SMOKE_OPS: usize = 4;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: usize,
    /// `Some(path)` selects the traced run.
    trace: Option<PathBuf>,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: da-benchmark --workload <{}> [--seed N] [--seconds S] \
         [--trace 0|1|OUT.json] [--smoke]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = 1u64;
    let mut seconds = 15usize;
    let mut trace = None;
    let mut smoke = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    *workloads::ALL
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds {value:?}: a whole number from 1 to 60"))?;
            }
            "--trace" => trace = Some(value),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    let spec = spec.ok_or_else(usage)?;
    let trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => {
            Some(PathBuf::from(DEFAULT_TRACE_DIR).join(format!("{}.trace.json", spec.name)))
        }
        Some(path) => Some(PathBuf::from(path)),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn norm_ms(data: &RunData) -> Vec<f64> {
    data.ops.iter().map(|o| o.norm_ms()).collect()
}

fn total_ticks(data: &RunData) -> u64 {
    data.ops.iter().map(|o| o.ticks).sum()
}

/// The ten end-to-end metrics of one untraced run.
fn end_to_end(spec: &Spec, data: &RunData) -> Rows {
    let norm = norm_ms(data);
    let p50 = median(&norm);
    // Every `X_per_s` divides the run's total of X by `ops × p50`: the
    // time the run would have taken had every op cost the median.
    let run_s = data.ops.len() as f64 * p50 / 1e3;
    let proc_ticks = spec.population as u64 * total_ticks(data);
    // Set-up is totalled the same way: every fixture build of the run
    // at the median build's normalised cost, so one stalled build out of
    // 12-270 does not move it.
    let build_ms: Vec<f64> = data
        .builds
        .iter()
        .map(|b| (b.network_ms + b.spawn_ms) / b.host_factor)
        .collect();
    let setup_ms = data.builds.len() as f64 * median(&build_ms);
    let live_bytes: Vec<f64> = data.builds.iter().map(|b| b.live_bytes as f64).collect();
    let ticks: Vec<f64> = data.ops.iter().map(|o| o.ticks as f64).collect();
    vec![
        ("deliveries_per_s", ratio(data.totals.first as f64, run_s)),
        ("envelopes_per_s", ratio(data.totals.sent as f64, run_s)),
        ("proc_ticks_per_s", ratio(proc_ticks as f64, run_s)),
        ("op_ms_p50", p50),
        ("op_ticks_mean", mean(&ticks)),
        (
            "delivery_ratio",
            ratio(data.totals.first as f64, data.audience as f64),
        ),
        (
            "envelopes_per_delivery",
            ratio(data.totals.sent as f64, data.totals.first as f64),
        ),
        (
            "bytes_per_process",
            median(&live_bytes) / spec.population as f64,
        ),
        ("peak_rss_mib", report::peak_rss_mib()),
        ("setup_s", setup_ms / 1e3),
    ]
}

fn histogram_stat(data: &RunData, name: &str, stat: impl Fn(&da_runtime::Histogram) -> f64) -> f64 {
    data.trace_log
        .as_ref()
        .and_then(|log| log.histogram(name))
        .map_or(0.0, stat)
}

/// The per-layer metrics the workload's own passes yield: `plain` is
/// the untraced reference, `stepped` the same ops in lock step with
/// `tick_us` their normalised tick spans, `counted` the counters-only
/// pass. A substrate the workload does not run on reports 0.
fn workload_layers<F: Fixture>(
    plain: &RunData,
    stepped: &RunData,
    counted: &RunData,
    tick_us: &[f64],
) -> Rows {
    let per_op = |f: fn(&OpSample) -> f64| -> Vec<f64> { plain.ops.iter().map(f).collect() };
    let per_build = |f: fn(&BuildSample) -> f64| -> f64 {
        median(&plain.builds.iter().map(f).collect::<Vec<_>>())
    };
    let plain_norm = norm_ms(plain);
    let ticks = total_ticks(plain) as f64;
    let ticks_per_op = ratio(ticks, plain.ops.len() as f64);
    let totals = plain.totals;
    let live = |v: f64| if F::LIVE { v } else { 0.0 };
    let sim = |v: f64| if F::LIVE { 0.0 } else { v };
    vec![
        ("simnet.round_us_p50", sim(median(tick_us))),
        ("simnet.round_us_p90", sim(percentile(tick_us, 0.9))),
        ("simnet.rounds_per_op", sim(ticks_per_op)),
        ("simnet.in_flight_peak", sim(stepped.in_flight_peak as f64)),
        (
            "simnet.engine_new_ms",
            sim(per_build(|b| b.spawn_ms / b.host_factor)),
        ),
        ("runtime.tick_us_p50", live(median(tick_us))),
        ("runtime.tick_us_p90", live(percentile(tick_us, 0.9))),
        ("runtime.ticks_per_op", live(ticks_per_op)),
        (
            "runtime.pipelining_gain",
            live(ratio(
                tick_us.iter().sum::<f64>() / 1e3,
                plain_norm.iter().sum(),
            )),
        ),
        (
            "runtime.spawn_ms",
            live(per_build(|b| b.spawn_ms / b.host_factor)),
        ),
        (
            "runtime.shutdown_ms",
            live(per_build(|b| b.shutdown_ms / b.host_factor)),
        ),
        (
            "runtime.counters_merge_us",
            live(median(&per_op(|o| o.collect_us / o.host_factor))),
        ),
        (
            "runtime.watermark_lag_mean",
            histogram_stat(counted, "watermark_lag", |h| h.mean()),
        ),
        (
            "wheel.occupancy_mean",
            histogram_stat(counted, "wheel_occupancy", |h| h.mean()),
        ),
        (
            "wheel.occupancy_max",
            histogram_stat(counted, "wheel_occupancy", |h| h.max() as f64),
        ),
        (
            "transport.lane_depth_mean",
            histogram_stat(counted, "lane_depth", |h| h.mean()),
        ),
        (
            "transport.dropped_channel_ratio",
            ratio(totals.dropped_channel as f64, totals.sent as f64),
        ),
        (
            "lifecycle.transitions_per_tick",
            ratio(totals.transitions as f64, ticks),
        ),
        (
            "protocol.duplicate_ratio",
            ratio(
                totals.duplicate as f64,
                (totals.first + totals.duplicate) as f64,
            ),
        ),
        (
            "protocol.control_share",
            ratio(totals.control as f64, totals.sent as f64),
        ),
        ("protocol.parasites", totals.parasite as f64),
        ("protocol.table_entries_mean", plain.table_entries_mean),
        ("driver.ops", plain.ops.len() as f64),
        ("driver.host_factor_p50", median(&per_op(|o| o.host_factor))),
        (
            "driver.host_factor_p90",
            percentile(&per_op(|o| o.host_factor), 0.9),
        ),
        ("driver.op_ms_raw_p50", median(&per_op(|o| o.raw_ms))),
        ("driver.op_ms_p90", percentile(&plain_norm, 0.9)),
        (
            "driver.trace_overhead_ratio",
            ratio(median(&norm_ms(stepped)), median(&plain_norm)),
        ),
        (
            "driver.alloc_bytes_per_delivery",
            ratio(
                per_op(|o| o.alloc_bytes as f64).iter().sum(),
                totals.first as f64,
            ),
        ),
        ("driver.allocs_per_op", mean(&per_op(|o| o.allocs as f64))),
    ]
}

/// The traced run: a quarter of the ops driven normally (the reference),
/// the same ops again in lock step under spans, a short counters-only
/// pass for the substrate's own histograms, the cross-substrate parity
/// check, and the layer probes.
fn traced<F: Fixture>(args: &Args, ops: usize, path: &Path, out: &mut Outcome) -> Rows {
    let spec = &args.spec;
    // Held over the workload's own passes only: the probes below run
    // two-thread loops that need both CPUs.
    let pin = Pin::for_workers(spec.workers);
    let mut cal = Calibrator::new(spec.workers);
    let off = TraceConfig::off();
    let quarter = if args.smoke { ops } else { (ops / 4).max(1) };

    let plain = workloads::run::<F>(spec, args.seed, quarter, &mut cal, off, None);
    let mut spans = Spans::new();
    let stepped = workloads::run::<F>(spec, args.seed, quarter, &mut cal, off, Some(&mut spans));
    let counted = workloads::run::<F>(
        spec,
        args.seed,
        quarter.min(spec.ops_per_fixture).min(8),
        &mut cal,
        TraceConfig::counters_only(),
        None,
    );
    for pass in [&plain, &stepped, &counted] {
        out.absorb(pass);
    }
    // Lock step and pipelined execution are the same logical run.
    if plain.totals != stepped.totals {
        out.fail(format!(
            "lock-step counters diverged from the pipelined run: {:?} vs {:?}",
            stepped.totals, plain.totals
        ));
    }
    let tick_us: Vec<f64> = spans
        .durations_by_op("tick")
        .into_iter()
        .map(|(op, us)| us / stepped.ops[op as usize].host_factor)
        .collect();
    let mut rows = workload_layers::<F>(&plain, &stepped, &counted, &tick_us);
    rows.push((
        "runtime.idle_tick_us",
        if F::LIVE {
            probes::idle_tick_us(spec, &mut cal, if args.smoke { 4 } else { 64 })
        } else {
            0.0
        },
    ));
    drop(cal);
    drop(pin);

    let mut single = Calibrator::new(1);
    let mut pair = Calibrator::new(2);
    if spec.name.ends_with("_wave") {
        match workloads::wave_parity(args.seed, SMOKE_OPS, &mut single) {
            Ok((sim, live)) => println!(
                "# parity over {SMOKE_OPS} ops: sim sent {} delivered {}, \
                 live(1 worker) sent {} delivered {}",
                sim.sent, sim.first, live.sent, live.first
            ),
            Err(why) => out.fail(why),
        }
    }
    let mut complaints = Vec::new();
    rows.extend(probes::run_all(
        &mut single,
        &mut pair,
        args.smoke,
        &mut complaints,
    ));
    for why in complaints {
        out.fail(why);
    }
    match spans.write_json(path, spec.name, args.seed) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
    }
    rows
}

fn bench<F: Fixture>(args: &Args) -> Outcome {
    let spec = &args.spec;
    let ops = if args.smoke {
        SMOKE_OPS
    } else {
        spec.ops_per_second * args.seconds
    };
    let mut out = Outcome::default();
    let rows = match &args.trace {
        Some(path) => traced::<F>(args, ops, path, &mut out),
        None => {
            let pin = Pin::for_workers(spec.workers);
            let mut cal = Calibrator::new(spec.workers);
            let data =
                workloads::run::<F>(spec, args.seed, ops, &mut cal, TraceConfig::off(), None);
            out.absorb(&data);
            let factors: Vec<f64> = data.ops.iter().map(|o| o.host_factor).collect();
            // The tail is printed, not gated: a two-second host stall
            // moves a run's p90 by 50%, so it cannot hold a bound here.
            println!(
                "# ops={} pinned_cpu={} host_factor_p50={:.4} host_factor_p90={:.4} op_ms_p90={:.4}",
                data.ops.len(),
                pin.cpu.map_or("none".to_owned(), |c| c.to_string()),
                median(&factors),
                percentile(&factors, 0.9),
                percentile(&norm_ms(&data), 0.9)
            );
            end_to_end(spec, &data)
        }
    };
    out.rows = rows;
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    report::print_header(&args.spec, args.seed, args.seconds, args.trace.is_some());
    let outcome = match args.spec.name {
        "sim_wave" => bench::<SimWave>(&args),
        "live_wave" => bench::<LiveWave>(&args),
        _ => bench::<Metro>(&args),
    };
    outcome.print(args.trace.is_some())
}
