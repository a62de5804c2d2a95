//! Ablations beyond the paper's figures, probing the design knobs that
//! Sec. V-B exposes ("the three parameters g, a and z let the application
//! choose between the overall reliability of the algorithm and the total
//! number of events sent between the groups"), plus the fanout-rule
//! readings (ARCHITECTURE.md, "Where the paper's figures live") and the
//! maintenance cadence of Fig. 6.

use crate::report::Table;
use crate::runner::{run_trials, sweep};
use crate::scenario::{run_scenario, ScenarioConfig};
use crate::substrate::Substrate;
use da_core::{FailureModel, Fate, ProcessId};
use da_membership::FanoutRule;
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

/// Sweeps the link-election weight `g`: inter-group traffic rises linearly
/// while root-delivery reliability saturates — the message/reliability
/// trade-off.
#[must_use]
pub fn ablation_ga(base: &ScenarioConfig, gs: &[f64], trials: usize, seed: u64) -> Table<f64> {
    let run = |g, trial_seed| {
        let mut config = base.clone();
        config.params.g = g;
        let out = run_scenario(&config, Substrate::Sim, trial_seed);
        let inter_total: f64 = out.inter_in.iter().sum();
        vec![
            inter_total,
            *out.delivered_fraction.first().expect("root level"),
            out.total_event_messages,
        ]
    };
    let columns = vec![
        "inter-group arrivals".into(),
        "root delivery fraction".into(),
        "total event messages".into(),
    ];
    let title = "Ablation g election weight";
    sweep(title, "g", columns, gs, trials, seed, run)
}

/// Sweeps the supertable size `z` (with `a = 1` fixed, so `p_a = 1/z` and
/// the *expected* spray per elected process stays one message): larger
/// tables spread the same expected load over more distinct links,
/// improving tolerance to individual dead contacts.
#[must_use]
pub fn ablation_z(base: &ScenarioConfig, zs: &[usize], trials: usize, seed: u64) -> Table<f64> {
    let xs: Vec<f64> = zs.iter().map(|&z| z as f64).collect();
    let run = |z: f64, trial_seed| {
        let mut config = base.clone();
        config.params.z = z as usize;
        config.params.tau = config.params.tau.min(z as usize);
        let out = run_scenario(&config, Substrate::Sim, trial_seed);
        let inter_total: f64 = out.inter_in.iter().sum();
        vec![
            inter_total,
            *out.delivered_fraction.first().expect("root level"),
        ]
    };
    let columns = vec![
        "inter-group arrivals".into(),
        "root delivery fraction".into(),
    ];
    let title = "Ablation z supertable size";
    sweep(title, "z", columns, &xs, trials, seed, run)
}

/// Compares the three fanout readings (`ln(S)+c` from the analysis,
/// `log10(S)+c` matching the paper's plotted magnitudes, and a fixed
/// fanout): intra-group message cost vs leaf/root delivery.
#[must_use]
pub fn ablation_fanout(base: &ScenarioConfig, trials: usize, seed: u64) -> Table<String> {
    let rules: [(&str, FanoutRule); 3] = [
        ("ln(S)+c", FanoutRule::LnPlusC { c: 5.0 }),
        ("log10(S)+c", FanoutRule::Log10PlusC { c: 5.0 }),
        ("fixed 8", FanoutRule::Fixed(8)),
    ];
    let mut table = Table::new(
        "Ablation fanout rule",
        "fanout rule",
        vec![
            "leaf intra messages".into(),
            "leaf delivery fraction".into(),
            "root delivery fraction".into(),
        ],
    );
    for (name, rule) in rules {
        let config = base.clone().with_fanout(rule);
        let summaries = run_trials(trials, seed, |trial_seed| {
            let out = run_scenario(&config, Substrate::Sim, trial_seed);
            vec![
                *out.intra.last().expect("leaf level"),
                *out.delivered_fraction.last().expect("leaf level"),
                *out.delivered_fraction.first().expect("root level"),
            ]
        });
        table.push_row(name, summaries);
    }
    table
}

/// Probes the maintenance cadence of Fig. 6 on a *dynamic* network under
/// churn: half the root group crashes mid-run; after the maintenance task
/// has had time to react, a leaf event is published and we measure whether
/// it still climbs to the surviving roots, plus how many supertable
/// entries still point at dead processes.
#[must_use]
pub fn ablation_maintenance(periods: &[u64], trials: usize, seed: u64) -> Table<f64> {
    let root_size = 6_usize;
    let leaf_size = 30_usize;
    let crash_round = 20_u64;
    let publish_round = 90_u64;
    let xs: Vec<f64> = periods.iter().map(|&p| p as f64).collect();

    let run = |period: f64, trial_seed| {
        let params = TopicParams {
            maintenance_period: period as u64,
            // Boost the election/spray weights: at this scale the paper's
            // g = 5 under-powers single-event runs.
            g: 15.0,
            a: 3.0,
            ..TopicParams::paper_default()
        };
        let net = Network::dynamic_linear(&[root_size, leaf_size], params, trial_seed)
            .expect("valid dynamic topology");
        let crashed: Vec<ProcessId> = (0..root_size / 2).map(ProcessId::from_index).collect();
        let fates = crashed
            .iter()
            .map(|&pid| Fate {
                round: crash_round,
                pid,
                crash: true,
            })
            .collect();
        let sim = SimConfig::default()
            .with_seed(trial_seed)
            .with_failures(FailureModel::Schedule(fates));
        let mut engine = Engine::new(sim, net.into_processes());
        engine.run_rounds(publish_round);

        // Supertable health: fraction of leaf supertable entries pointing
        // at live processes.
        let mut live_entries = 0_usize;
        let mut total_entries = 0_usize;
        for i in root_size..root_size + leaf_size {
            let table = &engine.process(ProcessId::from_index(i)).super_tables()[0];
            total_entries += table.len();
            live_entries += table
                .entries()
                .iter()
                .filter(|e| engine.status(e.pid).is_alive())
                .count();
        }
        let health = if total_entries == 0 {
            0.0
        } else {
            live_entries as f64 / total_entries as f64
        };

        let publisher = ProcessId::from_index(root_size + leaf_size / 2);
        let id = engine.process_mut(publisher).publish("after churn");
        engine.run_rounds(40);
        let live_roots: Vec<ProcessId> = (0..root_size)
            .map(ProcessId::from_index)
            .filter(|&p| engine.status(p).is_alive())
            .collect();
        let delivered = live_roots
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(id))
            .count();
        let root_delivery = delivered as f64 / live_roots.len() as f64;
        vec![health, root_delivery]
    };
    let columns = vec![
        "supertable live fraction".into(),
        "root delivery after churn".into(),
    ];
    let (title, key_label) = ("Ablation maintenance period", "maintenance period (rounds)");
    sweep(title, key_label, columns, &xs, trials, seed, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioConfig {
        ScenarioConfig::small()
    }

    #[test]
    fn g_buys_inter_group_traffic() {
        let t = ablation_ga(&base(), &[1.0, 20.0], 4, 11);
        assert!(
            t.rows[1].values[0].mean > t.rows[0].values[0].mean,
            "g=20 must generate more inter-group arrivals than g=1"
        );
        // Reliability is monotone (weakly) in g.
        assert!(t.rows[1].values[1].mean >= t.rows[0].values[1].mean - 0.1);
    }

    #[test]
    fn z_table_within_bounds() {
        let t = ablation_z(&base(), &[1, 4], 4, 12);
        for row in &t.rows {
            assert!((0.0..=1.0).contains(&row.values[1].mean));
        }
    }

    #[test]
    fn fanout_rules_ranked_by_cost() {
        let t = ablation_fanout(&base(), 3, 13);
        let ln_cost = t.rows[0].values[0].mean;
        let log10_cost = t.rows[1].values[0].mean;
        // ln(100)+5 = 9 vs log10(100)+5 = 7 targets per infection.
        assert!(
            ln_cost > log10_cost,
            "ln rule ({ln_cost}) must cost more than log10 ({log10_cost})"
        );
    }

    #[test]
    fn maintenance_restores_links() {
        let t = ablation_maintenance(&[4, 40], 3, 14);
        let fast = &t.rows[0];
        let slow = &t.rows[1];
        // A fast maintenance cadence must leave supertables at least as
        // healthy as a glacial one.
        assert!(
            fast.values[0].mean >= slow.values[0].mean - 0.05,
            "fast {} vs slow {}",
            fast.values[0].mean,
            slow.values[0].mean
        );
    }
}
