//! What the benchmark prints: host facts, every metric by name with
//! its unit, and the machine-readable last line.

use crate::calib::CAL_REF_MS;
use crate::workloads::{RunData, Spec};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// Named values, in reporting order.
pub type Rows = Vec<(&'static str, f64)>;

/// The end-to-end metrics (`--trace 0`) and their units. The same ten
/// for every workload; `../BENCHMARK.json` carries direction
/// and bound.
pub const END_TO_END: [(&str, &str); 10] = [
    ("deliveries_per_s", "1/s"),
    ("envelopes_per_s", "1/s"),
    ("proc_ticks_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ticks_mean", "ticks"),
    ("delivery_ratio", "ratio"),
    ("envelopes_per_delivery", "ratio"),
    ("bytes_per_process", "B"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics (`--trace 1`) and their units, layer by layer.
/// A workload that does not pass through a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 62] = [
    // da_simnet
    ("simnet.round_us_p50", "us"),
    ("simnet.round_us_p90", "us"),
    ("simnet.rounds_per_op", "ticks"),
    ("simnet.in_flight_peak", "count"),
    ("simnet.engine_new_ms", "ms"),
    ("simnet.counters_add_ns", "ns"),
    ("simnet.counters_bump_ns", "ns"),
    // da_runtime::runtime
    ("runtime.tick_us_p50", "us"),
    ("runtime.tick_us_p90", "us"),
    ("runtime.idle_tick_us", "us"),
    ("runtime.ticks_per_op", "ticks"),
    ("runtime.pipelining_gain", "ratio"),
    ("runtime.spawn_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("runtime.inject_us", "us"),
    ("runtime.counters_merge_us", "us"),
    // da_runtime::transport
    ("transport.lane_push_pop_ns", "ns"),
    ("transport.router_send_ns", "ns"),
    ("transport.router_send_perfect_ns", "ns"),
    ("transport.batch_len_mean", "count"),
    ("transport.pool_minted", "count"),
    ("transport.watermark_publish_ns", "ns"),
    ("transport.watermark_check_ns", "ns"),
    ("transport.dropped_channel_ratio", "ratio"),
    ("transport.lane_depth_mean", "count"),
    // da_runtime::lifecycle
    ("lifecycle.begin_tick_ns_per_proc_idle", "ns"),
    ("lifecycle.begin_tick_ns_per_proc_churn", "ns"),
    ("lifecycle.transitions_per_tick", "count"),
    // da_runtime::wheel (counts the program already exposes)
    ("wheel.occupancy_mean", "count"),
    ("wheel.occupancy_max", "count"),
    ("runtime.watermark_lag_mean", "ticks"),
    // da_runtime::metrics
    ("metrics.shard_publish_ns", "ns"),
    ("metrics.merged_us", "us"),
    // da_core
    ("channel.fate_draw_ns", "ns"),
    ("channel.fate_draw_perfect_ns", "ns"),
    ("failure.churn_flip_ns", "ns"),
    ("failure.transition_ns", "ns"),
    ("store.pair_mut_ns", "ns"),
    ("store.bytes_per_slot", "B"),
    ("trace.recorder_full_overhead", "ratio"),
    // damulticast / da_membership / da_topics
    ("protocol.on_message_ns", "ns"),
    ("protocol.on_round_ns", "ns"),
    ("protocol.publish_ns", "ns"),
    ("metro.on_message_ns", "ns"),
    ("protocol.duplicate_ratio", "ratio"),
    ("protocol.control_share", "ratio"),
    ("protocol.parasites", "count"),
    ("protocol.table_entries_mean", "count"),
    ("membership.view_sample_ns", "ns"),
    ("topics.includes_ns", "ns"),
    // shims
    ("crossbeam.spsc_push_pop_ns", "ns"),
    ("crossbeam.spsc_pingpong_ns", "ns"),
    // the driver itself
    ("driver.ops", "count"),
    ("driver.host_factor_p50", "ratio"),
    ("driver.host_factor_p90", "ratio"),
    ("driver.op_ms_raw_p50", "ms"),
    ("driver.op_ms_p90", "ms"),
    ("driver.trace_overhead_ratio", "ratio"),
    ("driver.alloc_bytes_per_delivery", "B"),
    ("driver.allocs_per_op", "count"),
    ("driver.cal_ref_ms", "ms"),
    ("driver.nproc", "count"),
];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

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

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host facts every result is only meaningful with.
pub fn print_header(spec: &Spec, seed: u64, seconds: usize, traced: bool) {
    println!(
        "# da-benchmark workload={} seed={seed} seconds={seconds} mode={}",
        spec.name,
        if traced { "traced" } else { "end-to-end" },
    );
    println!(
        "# host: nproc={} cpu=\"{}\" {} CAL_REF_MS={CAL_REF_MS}",
        nproc(),
        cpu_model(),
        rustc_version(),
    );
    println!(
        "# workload: population={} workers={} (threads <= nproc: {})",
        spec.population,
        spec.workers,
        spec.workers <= nproc(),
    );
}

/// The result of one benchmark invocation.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that tripped outside any single op.
    pub broken: Vec<String>,
    pub rows: Rows,
}

impl Outcome {
    /// Folds one pass's ops and output checks into the result.
    pub fn absorb(&mut self, data: &RunData) {
        self.attempted += data.ops.len() as u64;
        self.failed += data.failed;
        for why in &data.complaints {
            eprintln!("check failed: {why}");
        }
        if !data.outputs_ok {
            self.broken
                .push("a fixture-level output check failed".to_owned());
        }
    }

    /// Records an output check that failed.
    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.broken.push(why);
    }

    /// Prints every metric by name with its unit, then the JSON line.
    /// Non-zero exit when any output check failed.
    pub fn print(mut self, traced: bool) -> ExitCode {
        let table: &[(&str, &str)] = if traced {
            self.rows.push(("driver.cal_ref_ms", CAL_REF_MS));
            self.rows.push(("driver.nproc", nproc() as f64));
            &PER_LAYER
        } else {
            &END_TO_END
        };
        let mut json = String::new();
        for (name, unit) in table {
            let value = self
                .rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            println!("{name:<42} {value:>20.6} {unit}");
            if !json.is_empty() {
                json.push(',');
            }
            let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        let correct = self.failed == 0 && self.broken.is_empty();
        println!(
            "# attempted={} failed={} failure_share={:.6} correct={correct}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.attempted, self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
