//! Compares **delivery reliability live vs simulated**: the same
//! topology, parameters, and single-publication workload executed under
//! `da_simnet::Engine` and `da_runtime::Runtime` — first over perfect
//! channels (per-level delivered fractions, parasites, event-message
//! volume), then as a reliability sweep over the per-link success
//! probability, a churn sweep over the per-tick crash probability, and
//! a partition sweep over the cut-and-heal tick, checking the
//! substrates agree within 3σ at every point. Every sweep drives both
//! substrates through one `ScenarioConfig`. A flight-recorder
//! trace diff closes the run: the same-seed sim/live canonical event
//! streams must be bit-identical, and a deliberately lossy pair must
//! report a correct first-divergent event.
//!
//! Usage: `cargo run --release -p da-harness --bin live_vs_sim
//! [--quick] [--json]`
//!
//! `--json` prints every table as one machine-readable JSON document on
//! stdout (for CI artifacts) instead of the Markdown renderings; the
//! per-row 3σ verdicts move to stderr so stdout stays pure JSON.

use da_core::{ChannelConfig, FailureModel, FaultConfig, Latency, RunConfig};
use da_harness::experiments::live::{
    ratios_agree_within_3_sigma, run_churn_sweep, run_live_vs_sim, run_partition_sweep,
    run_reliability_sweep, CHURN_SWEEP_CRASH_RATES, PARTITION_SWEEP_HEAL_TICKS,
    RELIABILITY_SWEEP_PROBABILITIES,
};
use da_harness::experiments::trace::run_trace_diff;
use da_harness::experiments::Effort;
use da_harness::report::Table;
use da_harness::results_dir;
use da_harness::scenario::ScenarioConfig;

/// Prints a sweep under `heading` (as Markdown, unless `--json`) and a
/// 3σ verdict per row, and returns how many rows disagree.
fn check_sweep(table: &Table<f64>, heading: &str, label: &str, json: bool) -> u32 {
    if !json {
        println!("\n{heading}:");
        print!("{}", table.to_markdown());
    }
    let mut disagreements = 0;
    for row in &table.rows {
        let (sim, live) = (&row.values[0], &row.values[1]);
        let agree = ratios_agree_within_3_sigma(sim, live, 0.02);
        disagreements += u32::from(!agree);
        let verdict = if agree {
            "within 3σ"
        } else {
            "DISAGREE beyond 3σ"
        };
        let line = format!(
            "{label} = {:.2}: sim {:.4} vs live {:.4} — {verdict}",
            row.key, sim.mean, live.mean
        );
        // Keep stdout pure JSON in --json mode.
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    disagreements
}

fn main() {
    let effort = Effort::from_args(&["--json"], "usage: live_vs_sim [--quick] [--json]");
    let json = std::env::args().any(|a| a == "--json");
    // Perfect channels and no failures; each sweep overrides its axis.
    let scenario = ScenarioConfig {
        faults: FaultConfig::default(),
        ..effort.scenario()
    };
    let table = run_live_vs_sim(&scenario, effort.trials(), 0x11FE);
    if !json {
        print!("{}", table.to_markdown());
    }

    let (dir, trials) = (results_dir(), effort.trials());
    let mut disagreements = 0u32;
    // One-tick latency (workers within a tick of each other), then a
    // two-tick latency floor, under which the pool's workers drift two
    // ticks apart during the same sweep.
    let mut lossy = Vec::new();
    for latency in [Latency::Fixed(1), Latency::Fixed(2)] {
        let mut base = scenario.clone();
        base.faults.network.channel = ChannelConfig::reliable().with_latency(latency);
        let sweep = run_reliability_sweep(&base, &RELIABILITY_SWEEP_PROBABILITIES, 0x5EED, trials);
        disagreements += check_sweep(&sweep, &format!("latency {latency:?}"), "p", json);
        lossy.push(sweep);
    }

    // The churn sweep: the same comparison with the process failure
    // plan (crash/recovery fates shared across substrates) as the axis.
    let mut churn_base = scenario.clone();
    churn_base.faults.failure = FailureModel::Churn {
        crash_probability: 0.0,
        recover_probability: 0.3,
    };
    let churn = run_churn_sweep(&churn_base, &CHURN_SWEEP_CRASH_RATES, 0xC4A0, trials);
    let heading = "churn sweep (recover probability 0.3)";
    disagreements += check_sweep(&churn, heading, "crash", json);

    // The partition sweep: a two-island cut healing at the swept tick
    // (x = -1 never heals), with per-trial bit-identical mainland
    // delivered sets enforced inside the experiment.
    let partitions = run_partition_sweep(&scenario, &PARTITION_SWEEP_HEAL_TICKS, 0x9A27, trials);
    let heading = "partition sweep (heal tick; -1 = never heals)";
    disagreements += check_sweep(&partitions, heading, "heal", json);

    // The flight-recorder diff: asserts bit-identical same-seed streams
    // (and a correctly reported first divergence on a lossy pair)
    // inside the experiment.
    let population = scenario.group_sizes.iter().sum::<usize>().min(24) as u32;
    let trace_base = RunConfig::default()
        .with_seed(0xD1FF)
        .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(1)));
    let trace_diff: Table<String> = run_trace_diff(population, &trace_base, 2);
    if !json {
        println!("\nflight-recorder trace diff (first_divergence -1 = streams identical):");
        print!("{}", trace_diff.to_markdown());
    }

    // The two lossy sweeps share a title: the one-tick sweep is written.
    for sweep in [&lossy[0], &churn, &partitions] {
        sweep.write_to(&dir).expect("write sweep results");
    }
    trace_diff.write_to(&dir).expect("write trace diff");
    table.write_to(&dir).expect("write results");

    if json {
        let mut tables: Vec<String> = vec![table.to_json()];
        let sweeps = lossy.iter().chain([&churn, &partitions]);
        tables.extend(sweeps.map(Table::<f64>::to_json));
        tables.push(trace_diff.to_json());
        println!("{{\"tables\":[{}]}}", tables.join(","));
        eprintln!("written to {}", dir.display());
    } else {
        println!("\nwritten to {}", dir.display());
    }
    if disagreements > 0 {
        eprintln!("{disagreements} sweep point(s) disagree beyond 3σ");
        std::process::exit(1);
    }
}
