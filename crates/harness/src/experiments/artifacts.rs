//! Every artifact `run_all` writes, at the one seed and parameter set it
//! is reproduced with. Each function prints its tables as Markdown (a
//! series table with an ASCII plot) and writes them under `dir`.

use super::ablations::{ablation_fanout, ablation_ga, ablation_maintenance, ablation_z};
use super::dynamics::{run_churn, run_latency};
use super::figures::{per_observer_figure, stillborn_figures};
use super::parasites::run_parasite_table;
use super::scaling::run_scaling;
use super::tables::{run_complexity_table, run_reliability_table, run_tuning_table};
use super::{alive_fractions, Effort};
use crate::plot;
use crate::report::Table;
use std::path::Path;

fn emit_series(table: &Table<f64>, dir: &Path) {
    print!("{}", table.to_markdown());
    print!("{}", plot::ascii_plot(table, 60, 14));
    table.write_to(dir).expect("write results");
}

fn emit_keyed(table: &Table<String>, dir: &Path) {
    print!("{}", table.to_markdown());
    table.write_to(dir).expect("write results");
}

/// Leaf-group sizes of the scaling and latency sweeps.
fn leaf_sizes(effort: Effort) -> &'static [usize] {
    match effort {
        Effort::Quick => &[50, 100, 200],
        Effort::Paper => &[100, 250, 500, 1000, 2000],
    }
}

/// Figs. 8–11 over the alive-fraction axis: one stillborn sweep for
/// Figs. 8–10, one per-observer sweep for Fig. 11.
pub fn figures(effort: Effort, dir: &Path) {
    let (base, alive, trials) = (effort.scenario(), alive_fractions(), effort.trials());
    for table in stillborn_figures(&base, &alive, trials, 0xA11) {
        emit_series(&table, dir);
    }
    emit_series(&per_observer_figure(&base, &alive, trials, 0xA11), dir);
}

/// Sec. VI-E.1/VI-E.2: message and memory complexity of the four
/// algorithms.
pub fn complexity_table(effort: Effort, dir: &Path) {
    let sizes = effort.scenario().group_sizes;
    emit_keyed(&run_complexity_table(&sizes, effort.trials(), 0xA12), dir);
}

/// Sec. VI-E.3: the tuning equivalences for the preset's three levels,
/// `S_T = 1000` and `N = 33` hierarchical groups.
pub fn tuning_table(effort: Effort, dir: &Path) {
    let n = effort.scenario().group_sizes.iter().sum();
    emit_series(&run_tuning_table(3, n, 1000, 33), dir);
}

/// The parasite-freedom comparison (Sec. I and VI-E).
pub fn parasite_table(effort: Effort, dir: &Path) {
    let sizes = effort.scenario().group_sizes;
    emit_keyed(&run_parasite_table(&sizes, effort.trials(), 0xA13), dir);
}

/// Sec. VI-E.3, measured: the four algorithms under stillborn failures.
pub fn reliability_table(effort: Effort, dir: &Path) {
    let sizes = effort.scenario().group_sizes;
    let alive = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5];
    emit_series(
        &run_reliability_table(&sizes, &alive, effort.trials(), 0xA19),
        dir,
    );
}

/// The `O(S·ln S)` scaling claim (Sec. VI-B).
pub fn scaling(effort: Effort, dir: &Path) {
    emit_series(
        &run_scaling(leaf_sizes(effort), effort.trials(), 0xA14),
        dir,
    );
}

/// The temporal-dynamics extensions: propagation latency and delivery
/// under sustained churn.
pub fn dynamics(effort: Effort, dir: &Path) {
    emit_series(
        &run_latency(leaf_sizes(effort), effort.trials(), 0xA1A),
        dir,
    );
    let crash_rates = [0.001, 0.005, 0.01, 0.02, 0.05, 0.1];
    emit_series(&run_churn(&crash_rates, effort.trials(), 0xA1B), dir);
}

/// The `g`, `z`, fanout-rule and maintenance-cadence ablations.
pub fn ablations(effort: Effort, dir: &Path) {
    let (base, trials) = (effort.scenario(), effort.trials());
    let gs = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0];
    emit_series(&ablation_ga(&base, &gs, trials, 0xA15), dir);
    emit_series(&ablation_z(&base, &[1, 2, 3, 5, 8], trials, 0xA16), dir);
    emit_keyed(&ablation_fanout(&base, trials, 0xA17), dir);
    let periods = [2, 5, 10, 20, 40];
    emit_series(&ablation_maintenance(&periods, trials, 0xA18), dir);
}
