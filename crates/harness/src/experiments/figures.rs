//! Figures 8–11 of the paper: per-group message counts, inter-group
//! message counts, and delivery reliability, swept over the fraction of
//! alive processes.
//!
//! The four figures share one underlying sweep; they differ only in the
//! failure model (stillborn vs per-observer) and in which metrics are
//! extracted. [`FigureKind`] selects the figure.

use crate::report::Table;
use crate::runner::sweep;
use crate::scenario::{run_scenario, ScenarioConfig};
use crate::substrate::Substrate;
use da_core::FailureModel;

/// Which of the paper's four evaluation figures to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Fig. 8 — events sent within each group vs alive fraction
    /// (stillborn failures).
    Fig08GroupMessages,
    /// Fig. 9 — events crossing group boundaries vs alive fraction
    /// (stillborn failures).
    Fig09Intergroup,
    /// Fig. 10 — fraction of processes receiving the event, per group
    /// (stillborn failures).
    Fig10ReliabilityStillborn,
    /// Fig. 11 — same as Fig. 10 under per-observer ("weakly consistent")
    /// failures.
    Fig11ReliabilityDynamic,
}

impl FigureKind {
    /// The figure's title, as used in report files.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            FigureKind::Fig08GroupMessages => "Fig 08 events sent in each group",
            FigureKind::Fig09Intergroup => "Fig 09 intergroup events",
            FigureKind::Fig10ReliabilityStillborn => "Fig 10 reliability stillborn",
            FigureKind::Fig11ReliabilityDynamic => "Fig 11 reliability dynamic",
        }
    }

    /// The failure model this figure uses at `alive_fraction`.
    #[must_use]
    pub fn failure(self, alive_fraction: f64) -> FailureModel {
        match self {
            FigureKind::Fig11ReliabilityDynamic => FailureModel::PerObserver { alive_fraction },
            _ => FailureModel::Stillborn { alive_fraction },
        }
    }
}

/// Regenerates one of Figs. 8–11: sweeps `alive_fractions` with `trials`
/// seeded runs per point over `base` (whose failure model is overridden by
/// the figure's).
#[must_use]
pub fn run_figure(
    kind: FigureKind,
    base: &ScenarioConfig,
    alive_fractions: &[f64],
    trials: usize,
    seed: u64,
) -> Table<f64> {
    let levels = base.group_sizes.len();
    let rows = sweep(alive_fractions, trials, seed, |alive, trial_seed| {
        let mut config = base.clone();
        config.faults.failure = kind.failure(alive);
        let out = run_scenario(&config, Substrate::Sim, trial_seed);
        let mut top_down = match kind {
            FigureKind::Fig08GroupMessages => out.intra,
            FigureKind::Fig09Intergroup => out.inter_in,
            FigureKind::Fig10ReliabilityStillborn | FigureKind::Fig11ReliabilityDynamic => {
                out.delivered_fraction
            }
        };
        // The paper plots bottom-up: T2 dominates the figure.
        top_down.reverse();
        top_down
    });
    let columns = match kind {
        FigureKind::Fig09Intergroup => (1..levels)
            .rev()
            .map(|l| format!("T{l} to T{}", l - 1))
            .collect(),
        _ => (0..levels).rev().map(|l| format!("group T{l}")).collect(),
    };

    let mut table = Table::new(kind.title(), "alive fraction", columns);
    for (x, summaries) in rows {
        table.push_row(x, summaries);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: FigureKind) -> Table<f64> {
        run_figure(kind, &ScenarioConfig::small(), &[0.4, 1.0], 3, 7)
    }

    #[test]
    fn fig08_shape() {
        let t = quick(FigureKind::Fig08GroupMessages);
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
        let t = quick(FigureKind::Fig09Intergroup);
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
        let t = quick(FigureKind::Fig10ReliabilityStillborn);
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
        let f10 = quick(FigureKind::Fig10ReliabilityStillborn);
        let f11 = quick(FigureKind::Fig11ReliabilityDynamic);
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
