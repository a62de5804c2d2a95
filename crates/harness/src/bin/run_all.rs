//! Runs **every experiment** — the four figures, the three tables, the
//! scaling sweep, and the ablations — and writes all results under
//! `results/`. This is the one-shot reproduction entry point of
//! ARCHITECTURE.md's "Where the paper's figures live".
//!
//! Usage: `cargo run --release -p da-harness --bin run_all [--quick]`
//!
//! Every artifact is regenerated together: one run at `--quick` takes
//! about a second, so there is no option to pick a single one.

use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;
use std::path::Path;

/// Runs one artifact and writes it under the directory.
type Artifact = fn(Effort, &Path);

fn main() {
    let effort = Effort::from_args(&[], "usage: run_all [--quick]");
    let dir = results_dir();
    let start = std::time::Instant::now();

    let artifacts: [(&str, Artifact); 8] = [
        ("figures 8-11", artifacts::figures),
        ("complexity table", artifacts::complexity_table),
        ("tuning table", artifacts::tuning_table),
        ("parasite table", artifacts::parasite_table),
        ("reliability table", artifacts::reliability_table),
        ("scaling", artifacts::scaling),
        ("dynamics", artifacts::dynamics),
        ("ablations", artifacts::ablations),
    ];
    for (name, artifact) in artifacts {
        artifact(effort, &dir);
        println!("[{:>8.1?}] {name} done", start.elapsed());
    }

    std::fs::write(dir.join("README.md"), INDEX).expect("write results index");
    println!(
        "\nall experiments written to {} in {:?}",
        dir.display(),
        start.elapsed()
    );
}

/// `results/README.md`: an index mapping every committed artifact, this
/// binary's and `live_vs_sim`'s, to the paper figure/table (or extension)
/// it regenerates, the command that writes it and its trial count.
const INDEX: &str = "\
# Results index

Every file here is committed, and two commands write them all:

- `cargo run --release -p da-harness --bin run_all` writes the
  paper-scale artifacts and this index, at 20 seeded trials per sweep
  point (5 with `--quick`);
- `cargo run --release -p da-harness --bin live_vs_sim -- --quick --json`
  writes the five live-vs-simulated artifacts, at 5 seeded trials per
  point on each substrate.

Each entry exists as `.csv` (mean/std per column) and `.md`.

| Artifact | Reproduces | Command | Trials |
|---|---|---|---|
| `fig_08_events_sent_in_each_group` | Paper Fig. 8 | `run_all` | 20 per alive fraction |
| `fig_09_intergroup_events` | Paper Fig. 9 | `run_all` | 20 per alive fraction |
| `fig_10_reliability_stillborn` | Paper Fig. 10 | `run_all` | 20 per alive fraction |
| `fig_11_reliability_dynamic` | Paper Fig. 11 | `run_all` | 20 per alive fraction |
| `table_complexity_comparison` | Sec. VI-E.1 / VI-E.2 (+ bandwidth extension) | `run_all` | 20 per algorithm |
| `table_tuning_equivalences` | Sec. VI-E.3 + Appendix eqs. 16/19/23/25/28/30 | `run_all` | none: closed form |
| `table_reliability_comparison` | Sec. VI-E.3, measured (extension) | `run_all` | 20 per alive fraction, each running all four |
| `table_parasite_messages` | Parasite-freedom claim (Sec. I, VI-E) | `run_all` | 20 per algorithm |
| `fig_scaling_message_complexity` | `O(S·lnS)` claim (Sec. VI-B) | `run_all` | 20 per group size |
| `ablation_g_election_weight` | Sec. V-B trade-off, g sweep | `run_all` | 20 per `g` |
| `ablation_z_supertable_size` | Sec. V-B trade-off, z sweep | `run_all` | 20 per `z` |
| `ablation_fanout_rule` | ln vs log10 vs fixed fanout (ARCHITECTURE.md, \"Where the paper's figures live\") | `run_all` | 20 per rule |
| `ablation_maintenance_period` | Fig. 6 cadence under churn | `run_all` | 20 per period |
| `dynamics_propagation_latency` | rounds-to-coverage (extension) | `run_all` | 20 per group size |
| `dynamics_sustained_churn` | continuous churn delivery (extension) | `run_all` | 20 per crash rate |
| `live_runtime_vs_simulator_reliability` | substrate parity over perfect channels (extension) | `live_vs_sim --quick --json` | 5 per substrate |
| `delivery_ratio_under_lossy_channels_live_vs_simulated` | substrate parity under link loss, one-tick latency (extension) | `live_vs_sim --quick --json` | 5 per success probability and substrate |
| `delivery_ratio_under_continuous_churn_live_vs_simulated` | substrate parity under crash/recovery churn (extension) | `live_vs_sim --quick --json` | 5 per crash probability and substrate |
| `delivery_ratio_across_partition_cut_and_heal_scenarios_live_vs_simulated` | substrate parity across a healed partition (extension) | `live_vs_sim --quick --json` | 5 per heal tick and substrate |
| `flight_recorder_trace_diff_live_vs_simulated` | bit-identical canonical event streams (extension) | `live_vs_sim --quick --json` | 1 run per side of each pair |

## What the paper reports

A column with the paper's own numbers beside each figure waits until
those numbers are in the repository: PAPER.md holds only the paper's
title, so no measured cell here has a reported value to set beside it.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_document_the_index_cites_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cited: Vec<&str> = INDEX
            .split(|c: char| !(c.is_ascii_alphanumeric() || "_-.".contains(c)))
            .filter(|word| word.len() > ".md".len() && word.ends_with(".md"))
            .collect();
        assert!(cited.contains(&"ARCHITECTURE.md"), "{cited:?}");
        for name in cited {
            assert!(root.join(name).is_file(), "the index cites {name}");
        }
    }
}
