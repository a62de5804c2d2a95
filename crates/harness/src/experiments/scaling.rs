//! The `O(S·ln S)` scalability claim (Sec. VI-B): total event messages per
//! publication grow as `S·ln(S)` in the size of the biggest group.

use crate::report::Table;
use crate::runner::sweep;
use crate::scenario::{run_scenario, ScenarioConfig};
use crate::substrate::Substrate;
use da_core::FaultConfig;
use da_membership::FanoutRule;

/// Sweeps the leaf-group size and records total event messages plus the
/// normalised ratio `messages / (S·ln S)` — flat-or-falling confirms the
/// complexity class.
#[must_use]
pub fn run_scaling(leaf_sizes: &[usize], trials: usize, seed: u64) -> Table<f64> {
    let xs: Vec<f64> = leaf_sizes.iter().map(|&s| s as f64).collect();
    let run = |s: f64, trial_seed| {
        let s = s as usize;
        let config = ScenarioConfig {
            group_sizes: vec![10, 100, s],
            faults: FaultConfig::default(),
            ..ScenarioConfig::paper_default()
        }
        .with_fanout(FanoutRule::LnPlusC { c: 5.0 });
        let out = run_scenario(&config, Substrate::Sim, trial_seed);
        let norm = s as f64 * (s as f64).ln();
        vec![out.total_event_messages, out.total_event_messages / norm]
    };
    let title = "Fig scaling message complexity";
    let columns = vec!["total event messages".into(), "messages / (S ln S)".into()];
    sweep(title, "leaf group size S", columns, &xs, trials, seed, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_grow_but_ratio_stays_bounded() {
        let t = run_scaling(&[150, 300, 600], 2, 3);
        assert_eq!(t.rows.len(), 3);
        let first = &t.rows[0];
        let last = &t.rows[2];
        assert!(
            last.values[0].mean > first.values[0].mean,
            "absolute count grows with S"
        );
        // The normalised ratio must not grow: O(S·lnS) means the ratio is
        // asymptotically constant (it *falls* while the +c term amortises).
        assert!(
            last.values[1].mean <= first.values[1].mean * 1.15,
            "ratio grew: {} → {}",
            first.values[1].mean,
            last.values[1].mean
        );
    }
}
