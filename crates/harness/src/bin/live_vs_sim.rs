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
    churn_sweep_crash_rates, partition_sweep_heal_ticks, ratios_agree_within_3_sigma,
    reliability_sweep_probabilities, run_churn_sweep, run_live_vs_sim, run_partition_sweep,
    run_reliability_sweep,
};
use da_harness::experiments::trace::run_trace_diff;
use da_harness::experiments::Effort;
use da_harness::report::Table;
use da_harness::results_dir;
use da_harness::scenario::ScenarioConfig;

fn check_rows(table: &Table<f64>, label: &str, json: bool, disagreements: &mut u32) {
    for row in &table.rows {
        let (sim, live) = (&row.values[0], &row.values[1]);
        let agree = ratios_agree_within_3_sigma(sim, live, 0.02);
        *disagreements += u32::from(!agree);
        let line = format!(
            "{label} = {:.2}: sim {:.4} vs live {:.4} — {}",
            row.key,
            sim.mean,
            live.mean,
            if agree {
                "within 3σ"
            } else {
                "DISAGREE beyond 3σ"
            }
        );
        // Keep stdout pure JSON in --json mode.
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
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

    let probs = reliability_sweep_probabilities();
    let mut disagreements = 0u32;
    let mut sweeps: Vec<Table<f64>> = Vec::new();
    // One-tick latency (workers within a tick of each other), then a
    // two-tick latency floor, under which the pool's workers drift two
    // ticks apart during the same sweep.
    for latency in [Latency::Fixed(1), Latency::Fixed(2)] {
        let mut base = scenario.clone();
        base.faults.network.channel = ChannelConfig::reliable().with_latency(latency);
        let sweep = run_reliability_sweep(&base, &probs, 0x5EED, effort.trials());
        if !json {
            println!("\nlatency {latency:?}:");
            print!("{}", sweep.to_markdown());
        }
        check_rows(&sweep, "p", json, &mut disagreements);
        if latency == Latency::Fixed(1) {
            let dir = results_dir();
            sweep.write_to(&dir).expect("write sweep results");
        }
        sweeps.push(sweep);
    }

    // The churn sweep: the same comparison with the process failure
    // plan (crash/recovery fates shared across substrates) as the axis.
    let mut churn_base = scenario.clone();
    churn_base.faults.failure = FailureModel::Churn {
        crash_probability: 0.0,
        recover_probability: 0.3,
    };
    let churn = run_churn_sweep(
        &churn_base,
        &churn_sweep_crash_rates(),
        0xC4A0,
        effort.trials(),
    );
    if !json {
        println!("\nchurn sweep (recover probability 0.3):");
        print!("{}", churn.to_markdown());
    }
    check_rows(&churn, "crash", json, &mut disagreements);

    // The partition sweep: a two-island cut healing at the swept tick
    // (x = -1 never heals), with per-trial bit-identical mainland
    // delivered sets enforced inside the experiment.
    let partitions = run_partition_sweep(
        &scenario,
        &partition_sweep_heal_ticks(),
        0x9A27,
        effort.trials(),
    );
    if !json {
        println!("\npartition sweep (heal tick; -1 = never heals):");
        print!("{}", partitions.to_markdown());
    }
    check_rows(&partitions, "heal", json, &mut disagreements);

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

    let dir = results_dir();
    partitions.write_to(&dir).expect("write partition sweep");
    churn.write_to(&dir).expect("write churn sweep results");
    trace_diff.write_to(&dir).expect("write trace diff");
    table.write_to(&dir).expect("write results");

    if json {
        let mut tables: Vec<String> = vec![table.to_json()];
        tables.extend(sweeps.iter().map(Table::<f64>::to_json));
        tables.push(churn.to_json());
        tables.push(partitions.to_json());
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
