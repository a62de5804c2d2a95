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

/// `results/README.md`: an index mapping every artifact back to the paper
/// figure/table (or extension) it regenerates.
const INDEX: &str = "\
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
| `ablation_fanout_rule` | ln vs log10 vs fixed fanout (ARCHITECTURE.md, \"Where the paper's figures live\") |
| `ablation_maintenance_period` | Fig. 6 cadence under churn |
| `dynamics_propagation_latency` | rounds-to-coverage (extension) |
| `dynamics_sustained_churn` | continuous churn delivery (extension) |
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
