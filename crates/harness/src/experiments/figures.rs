//! Figures 8–11 of the paper: per-group message counts, inter-group
//! message counts, and delivery reliability, swept over the fraction of
//! alive processes.
//!
//! Figs. 8, 9 and 10 read three families of columns off the same
//! scenarios under stillborn failures, so [`stillborn_figures`] runs that
//! sweep once; Fig. 11 is [`per_observer_figure`], the reliability
//! columns under per-observer ("weakly consistent") failures.

use crate::report::Table;
use crate::runner::sweep;
use crate::scenario::{run_scenario, ScenarioConfig};
use crate::substrate::Substrate;
use da_core::FailureModel;

/// Label of the figures' key column.
const ALIVE: &str = "alive fraction";

/// A per-level metric in the order the paper plots it: bottom-up, so
/// `T2` leads.
fn bottom_up(mut top_down: Vec<f64>) -> Vec<f64> {
    top_down.reverse();
    top_down
}

/// One column per group, bottom-up.
fn group_columns(levels: usize) -> Vec<String> {
    (0..levels).rev().map(|l| format!("group T{l}")).collect()
}

/// Figs. 8, 9 and 10, in that order, from one sweep of the `alive` fractions
/// with `trials` seeded runs per point over `base`, whose failure model
/// is replaced by stillborn failures: events sent within each group,
/// events crossing each group boundary, and the fraction of each group
/// that received the event.
#[must_use]
pub fn stillborn_figures(
    base: &ScenarioConfig,
    alive: &[f64],
    trials: usize,
    seed: u64,
) -> [Table<f64>; 3] {
    let levels = base.group_sizes.len();
    let boundaries = (1..levels)
        .rev()
        .map(|l| format!("T{l} to T{}", l - 1))
        .collect();
    let mut tables = [
        Table::new(
            "Fig 08 events sent in each group",
            ALIVE,
            group_columns(levels),
        ),
        Table::new("Fig 09 intergroup events", ALIVE, boundaries),
        Table::new("Fig 10 reliability stillborn", ALIVE, group_columns(levels)),
    ];
    let run = |fraction, trial_seed| {
        let mut config = base.clone();
        config.faults.failure = FailureModel::Stillborn {
            alive_fraction: fraction,
        };
        let out = run_scenario(&config, Substrate::Sim, trial_seed);
        let mut metrics = bottom_up(out.intra);
        metrics.extend(bottom_up(out.inter_in));
        metrics.extend(bottom_up(out.delivered_fraction));
        metrics
    };
    let columns = tables.iter().flat_map(|t| t.columns.clone()).collect();
    for mut row in sweep("Figs 08-10", ALIVE, columns, alive, trials, seed, run).rows {
        for table in &mut tables {
            let values = row.values.drain(..table.columns.len()).collect();
            table.push_row(row.key, values);
        }
    }
    tables
}

/// Fig. 11: the fraction of each group that received the event, swept
/// like [`stillborn_figures`] but under per-observer failures.
#[must_use]
pub fn per_observer_figure(
    base: &ScenarioConfig,
    alive: &[f64],
    trials: usize,
    seed: u64,
) -> Table<f64> {
    let run = |fraction, trial_seed| {
        let mut config = base.clone();
        config.faults.failure = FailureModel::PerObserver {
            alive_fraction: fraction,
        };
        bottom_up(run_scenario(&config, Substrate::Sim, trial_seed).delivered_fraction)
    };
    let columns = group_columns(base.group_sizes.len());
    let title = "Fig 11 reliability dynamic";
    sweep(title, ALIVE, columns, alive, trials, seed, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> [Table<f64>; 3] {
        stillborn_figures(&ScenarioConfig::small(), &[0.4, 1.0], 3, 7)
    }

    #[test]
    fn fig08_shape() {
        let [t, ..] = quick();
        assert_eq!(t.columns, vec!["group T2", "group T1", "group T0"]);
        assert_eq!(t.rows.len(), 2);
        // At full aliveness the leaf group (100 members) sends far more
        // than the root group (5 members).
        let full = &t.rows[1];
        assert!(full.values[0].mean > full.values[2].mean);
        // More failures → fewer messages.
        assert!(t.rows[0].values[0].mean < full.values[0].mean);
    }

    #[test]
    fn fig09_boundaries() {
        let [_, t, _] = quick();
        assert_eq!(t.columns, vec!["T2 to T1", "T1 to T0"]);
        // At full aliveness at least one event crosses each boundary on
        // average (the paper's claim).
        let full = &t.rows[1];
        assert!(
            full.values[0].mean >= 1.0,
            "T2→T1 = {}",
            full.values[0].mean
        );
    }

    #[test]
    fn fig10_reliability_bounds() {
        let [.., t] = quick();
        for row in &t.rows {
            for v in &row.values {
                assert!((0.0..=1.0).contains(&v.mean));
            }
        }
        // Full aliveness: leaf group reliability near 1.
        assert!(t.rows[1].values[0].mean > 0.9);
    }

    #[test]
    fn fig11_beats_fig10_under_failures() {
        let [.., f10] = quick();
        let f11 = per_observer_figure(&ScenarioConfig::small(), &[0.4, 1.0], 3, 7);
        // At 40% aliveness the per-observer model keeps reliability
        // markedly higher (the paper's headline Fig. 11 observation);
        // compare the leaf group column.
        assert!(
            f11.rows[0].values[0].mean >= f10.rows[0].values[0].mean,
            "dynamic {} < stillborn {}",
            f11.rows[0].values[0].mean,
            f10.rows[0].values[0].mean
        );
    }
}
