//! Runs **every experiment** — the four figures, the three tables, the
//! scaling sweep, and the ablations — and writes all results under
//! `results/`. This is the one-shot reproduction entry point of
//! ARCHITECTURE.md's "Where the paper's figures live".
//!
//! Usage: `cargo run --release -p da-harness --bin run_all [--quick]`

use da_harness::experiments::ablations::{
    ablation_fanout, ablation_ga, ablation_maintenance, ablation_z,
};
use da_harness::experiments::dynamics::{run_churn, run_latency};
use da_harness::experiments::figures::{run_figure, FigureKind};
use da_harness::experiments::parasites::run_parasite_table;
use da_harness::experiments::scaling::run_scaling;
use da_harness::experiments::tables::{
    run_complexity_table, run_reliability_table, run_tuning_table,
};
use da_harness::experiments::{alive_fractions, Effort};
use da_harness::{plot, results_dir};

fn main() {
    let effort = Effort::from_args();
    let base = effort.scenario();
    let trials = effort.trials();
    let dir = results_dir();
    let start = std::time::Instant::now();

    for kind in [
        FigureKind::Fig08GroupMessages,
        FigureKind::Fig09Intergroup,
        FigureKind::Fig10ReliabilityStillborn,
        FigureKind::Fig11ReliabilityDynamic,
    ] {
        let table = run_figure(kind, &base, &alive_fractions(), trials, 0xA11);
        print!("{}", table.to_markdown());
        print!("{}", plot::ascii_plot(&table, 60, 14));
        table.write_to(&dir).expect("write results");
        println!("[{:>8.1?}] {} done", start.elapsed(), kind.title());
    }

    let complexity = run_complexity_table(&base.group_sizes, trials, 0xA12);
    print!("{}", complexity.to_markdown());
    complexity.write_to(&dir).expect("write results");
    println!("[{:>8.1?}] complexity table done", start.elapsed());

    let tuning = run_tuning_table(3, base.group_sizes.iter().sum(), 1000, 33);
    print!("{}", tuning.to_markdown());
    tuning.write_to(&dir).expect("write results");
    println!("[{:>8.1?}] tuning table done", start.elapsed());

    let parasite = run_parasite_table(&base.group_sizes, trials, 0xA13);
    print!("{}", parasite.to_markdown());
    parasite.write_to(&dir).expect("write results");
    println!("[{:>8.1?}] parasite table done", start.elapsed());

    let reliability = run_reliability_table(
        &base.group_sizes,
        &[1.0, 0.9, 0.8, 0.7, 0.6, 0.5],
        trials,
        0xA19,
    );
    print!("{}", reliability.to_markdown());
    reliability.write_to(&dir).expect("write results");
    println!("[{:>8.1?}] reliability table done", start.elapsed());

    let scaling_sizes: &[usize] = match effort {
        Effort::Quick => &[50, 100, 200],
        Effort::Paper => &[100, 250, 500, 1000, 2000],
    };
    let scaling = run_scaling(scaling_sizes, trials, 0xA14);
    print!("{}", scaling.to_markdown());
    scaling.write_to(&dir).expect("write results");
    println!("[{:>8.1?}] scaling done", start.elapsed());

    let latency_sizes: &[usize] = match effort {
        Effort::Quick => &[50, 100, 200],
        Effort::Paper => &[100, 250, 500, 1000, 2000],
    };
    let latency = run_latency(latency_sizes, trials, 0xA1A);
    print!("{}", latency.to_markdown());
    latency.write_to(&dir).expect("write results");
    let churn = run_churn(&[0.001, 0.005, 0.01, 0.02, 0.05, 0.1], trials, 0xA1B);
    print!("{}", churn.to_markdown());
    churn.write_to(&dir).expect("write results");
    println!("[{:>8.1?}] dynamics done", start.elapsed());

    let ga = ablation_ga(&base, &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0], trials, 0xA15);
    ga.write_to(&dir).expect("write results");
    let z = ablation_z(&base, &[1, 2, 3, 5, 8], trials, 0xA16);
    z.write_to(&dir).expect("write results");
    let fanout = ablation_fanout(&base, trials, 0xA17);
    fanout.write_to(&dir).expect("write results");
    let maintenance = ablation_maintenance(&[2, 5, 10, 20, 40], trials, 0xA18);
    maintenance.write_to(&dir).expect("write results");
    println!("[{:>8.1?}] ablations done", start.elapsed());

    write_index(&dir).expect("write results index");
    println!(
        "\nall experiments written to {} in {:?}",
        dir.display(),
        start.elapsed()
    );
}

/// Writes `results/README.md`: an index mapping every artifact back to
/// the paper figure/table (or extension) it regenerates.
fn write_index(dir: &std::path::Path) -> std::io::Result<()> {
    let index = "\
# Results index

Regenerated by `cargo run --release -p da-harness --bin run_all`.
Each entry exists as `.csv` (mean/std per column) and `.md`.

| Artifact | Reproduces |
|---|---|
| `fig_08_events_sent_in_each_group` | Paper Fig. 8 |
| `fig_09_intergroup_events` | Paper Fig. 9 |
| `fig_10_reliability_stillborn` | Paper Fig. 10 |
| `fig_11_reliability_dynamic` | Paper Fig. 11 |
| `table_complexity_comparison` | Sec. VI-E.1 / VI-E.2 (+ bandwidth extension) |
| `table_tuning_equivalences` | Sec. VI-E.3 + Appendix eqs. 16/19/23/25/28/30 |
| `table_reliability_comparison` | Sec. VI-E.3, measured (extension) |
| `table_parasite_messages` | Parasite-freedom claim (Sec. I, VI-E) |
| `fig_scaling_message_complexity` | `O(S·lnS)` claim (Sec. VI-B) |
| `ablation_g_election_weight` | Sec. V-B trade-off, g sweep |
| `ablation_z_supertable_size` | Sec. V-B trade-off, z sweep |
| `ablation_fanout_rule` | ln vs log10 vs fixed fanout (DESIGN.md) |
| `ablation_maintenance_period` | Fig. 6 cadence under churn |
| `dynamics_propagation_latency` | rounds-to-coverage (extension) |
| `dynamics_sustained_churn` | continuous churn delivery (extension) |
";
    std::fs::write(dir.join("README.md"), index)
}
