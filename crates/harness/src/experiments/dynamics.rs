//! Temporal dynamics (extensions beyond the paper's figures):
//!
//! * **propagation latency** — gossip reaches everyone in `O(log S)`
//!   rounds; we measure rounds-to-50%/95%/full coverage of the leaf group
//!   as it grows, a dimension the paper's message-count figures leave
//!   implicit;
//! * **sustained churn** — the paper assumes "processes might crash and
//!   recover" but evaluates only stillborn/per-observer snapshots; here
//!   the full dynamic stack runs under continuous churn and we measure how
//!   delivery degrades with the churn rate.

use crate::report::Table;
use crate::runner::sweep;
use da_core::{ChannelConfig, FailureModel, ProcessId};
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

/// Rounds until 50% / 95% / 100% of the leaf group has delivered one leaf
/// publication, vs the leaf-group size.
#[must_use]
pub fn run_latency(leaf_sizes: &[usize], trials: usize, seed: u64) -> Table<f64> {
    let xs: Vec<f64> = leaf_sizes.iter().map(|&s| s as f64).collect();
    let run = |s: f64, trial_seed| {
        let net = Network::linear(&[10, 100, s as usize], TopicParams::default(), trial_seed)
            .expect("valid topology");
        let leaf_members = net.groups()[2].members.clone();
        let sim = SimConfig::default()
            .with_seed(trial_seed)
            .with_channel(ChannelConfig::paper_default());
        let mut engine = Engine::new(sim, net.into_processes());
        let id = engine.process_mut(leaf_members[0]).publish("latency probe");

        let mut reached: [Option<u64>; 3] = [None; 3];
        for round in 0..96u64 {
            engine.step_round();
            let got = leaf_members
                .iter()
                .filter(|&&p| engine.process(p).has_delivered(id))
                .count();
            let frac = got as f64 / leaf_members.len() as f64;
            for (at, threshold) in reached.iter_mut().zip([0.5, 0.95, 1.0]) {
                if at.is_none() && frac >= threshold {
                    *at = Some(round);
                }
            }
            if got == leaf_members.len() {
                break;
            }
        }
        // Unreached thresholds (possible for 100% under channel loss)
        // count as the cap — they pull the mean up honestly.
        reached
            .map(|at| at.map_or(96.0, |round| round as f64))
            .to_vec()
    };
    let columns = vec![
        "rounds to 50%".into(),
        "rounds to 95%".into(),
        "rounds to 100% (capped 96)".into(),
    ];
    let title = "Dynamics propagation latency";
    sweep(title, "leaf group size S", columns, &xs, trials, seed, run)
}

/// Delivery under sustained churn: the dynamic stack runs with per-round
/// crash/recovery at a fixed stationary aliveness of 75%, sweeping the
/// *churn intensity* (how fast processes cycle). Faster churn stresses
/// the maintenance task harder.
#[must_use]
pub fn run_churn(crash_rates: &[f64], trials: usize, seed: u64) -> Table<f64> {
    let run = |crash: f64, trial_seed| {
        // recover = 3·crash → stationary aliveness 0.75 at any intensity.
        let recover = (crash * 3.0).min(1.0);
        let params = TopicParams {
            maintenance_period: 5,
            ping_timeout: 2,
            g: 15.0,
            a: 3.0,
            ..TopicParams::paper_default()
        };
        let net =
            Network::dynamic_linear(&[8, 40], params, trial_seed).expect("valid dynamic topology");
        let groups = net.groups().to_vec();
        let sim = SimConfig::default()
            .with_seed(trial_seed)
            .with_failures(FailureModel::Churn {
                crash_probability: crash,
                recover_probability: recover,
            });
        let mut engine = Engine::new(sim, net.into_processes());
        engine.run_rounds(60); // bootstrap + reach churn stationarity

        // Publish 5 events from alive leaves, spaced out.
        let mut ids = Vec::new();
        for i in 0..5 {
            let publisher = groups[1]
                .members
                .iter()
                .copied()
                .cycle()
                .skip(i * 7)
                .find(|&p| engine.status(p).is_alive());
            if let Some(p) = publisher {
                ids.push(engine.process_mut(p).publish(format!("churn {i}")));
            }
            engine.run_rounds(10);
        }
        engine.run_rounds(30);

        // Delivery among currently-alive leaf members, averaged over events.
        let alive_leaves: Vec<ProcessId> = groups[1]
            .members
            .iter()
            .copied()
            .filter(|&p| engine.status(p).is_alive())
            .collect();
        let mut leaf_frac = 0.0;
        let mut root_frac = 0.0;
        let alive_roots: Vec<ProcessId> = groups[0]
            .members
            .iter()
            .copied()
            .filter(|&p| engine.status(p).is_alive())
            .collect();
        for &id in &ids {
            if !alive_leaves.is_empty() {
                leaf_frac += alive_leaves
                    .iter()
                    .filter(|&&p| engine.process(p).has_delivered(id))
                    .count() as f64
                    / (alive_leaves.len() * ids.len()) as f64;
            }
            if !alive_roots.is_empty() {
                root_frac += alive_roots
                    .iter()
                    .filter(|&&p| engine.process(p).has_delivered(id))
                    .count() as f64
                    / (alive_roots.len() * ids.len()) as f64;
            }
        }
        vec![leaf_frac, root_frac]
    };
    let columns = vec![
        "leaf delivery (alive members)".into(),
        "root delivery (alive members)".into(),
    ];
    let (title, key_label) = ("Dynamics sustained churn", "per-round crash probability");
    sweep(title, key_label, columns, crash_rates, trials, seed, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_slowly_with_size() {
        let t = run_latency(&[50, 400], 3, 31);
        assert_eq!(t.rows.len(), 2);
        let small = t.rows[0].values[0].mean;
        let large = t.rows[1].values[0].mean;
        // log-ish growth: 8× the population must cost far less than 8×
        // the rounds.
        assert!(large <= small * 3.0, "50%-latency {small} → {large}");
        // Thresholds are ordered.
        for row in &t.rows {
            assert!(row.values[0].mean <= row.values[1].mean);
            assert!(row.values[1].mean <= row.values[2].mean);
        }
    }

    #[test]
    fn gentle_churn_tolerated() {
        let t = run_churn(&[0.002, 0.05], 3, 32);
        assert_eq!(t.rows.len(), 2);
        let gentle = &t.rows[0];
        assert!(
            gentle.values[0].mean > 0.6,
            "gentle churn leaf delivery {}",
            gentle.values[0].mean
        );
        // All values are probabilities.
        for row in &t.rows {
            for v in &row.values {
                assert!((0.0..=1.0 + 1e-9).contains(&v.mean));
            }
        }
    }
}
