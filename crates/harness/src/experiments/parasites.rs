//! The parasite-message claim (Sec. I and VI-E of the paper): daMulticast
//! never delivers an event to a process that did not subscribe to its
//! topic; interest-oblivious baselines cannot avoid it.
//!
//! The worst case for the baselines is an event published on the *root*
//! topic of the paper's topology: only the 10 root subscribers want it,
//! yet broadcast and hierarchical broadcast push it through all 1110
//! processes.

use super::tables::{sends, BASELINES, FANOUT};
use crate::report::Table;
use crate::runner::run_trials;
use crate::scenario::{publish_and_settle, run_scenario, ScenarioConfig};
use crate::substrate::Substrate;
use da_baselines::{GossipProcess, InterestMap};
use da_core::{FaultConfig, Kind, ProcessId, RunConfig};

/// Runs the four algorithms with one root-topic publication each and
/// tabulates deliveries, parasites, and event traffic.
#[must_use]
pub fn run_parasite_table(group_sizes: &[usize], trials: usize, seed: u64) -> Table<String> {
    let interests = InterestMap::linear(group_sizes);
    let root_publisher = ProcessId(0);

    let mut table = Table::new(
        "Table parasite messages",
        "algorithm",
        vec![
            "deliveries".into(),
            "parasite receptions".into(),
            "event messages sent".into(),
        ],
    );

    // daMulticast: publish in the root group.
    let da_config = ScenarioConfig {
        group_sizes: group_sizes.to_vec(),
        publish_level: 0,
        faults: FaultConfig::default(),
        ..ScenarioConfig::paper_default()
    }
    .with_fanout(FANOUT);
    let da = run_trials(trials, seed, |s| {
        let out = run_scenario(&da_config, Substrate::Sim, s);
        let delivered_root = out.delivered_fraction[0] * group_sizes[0] as f64;
        vec![delivered_root, out.parasites, out.total_event_messages]
    });
    table.push_row("daMulticast", da);

    for (name, family, build) in BASELINES {
        let row = run_trials(trials, seed, |s| {
            let config = RunConfig::default().with_seed(s);
            let procs = build(&interests, s);
            let publish = |p: &mut GossipProcess| p.publish("root news");
            let out =
                publish_and_settle(Substrate::Sim, config, procs, root_publisher, publish, 64).2;
            let total = |kind| out.tally.total(family, kind);
            let sent = sends(&out.tally, family);
            [total(Kind::Delivered), total(Kind::Parasite), sent]
                .map(|count| count as f64)
                .to_vec()
        });
        table.push_row(name, row);
    }

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parasite_freedom_separates_the_algorithms() {
        let t = run_parasite_table(&[4, 10, 40], 3, 9);
        let parasites = |i: usize| t.rows[i].values[1].mean;
        assert_eq!(parasites(0), 0.0, "daMulticast");
        assert!(parasites(1) > 10.0, "broadcast breeds parasites");
        assert_eq!(parasites(2), 0.0, "multicast groups match interests");
        assert!(parasites(3) > 10.0, "hierarchical breeds parasites");
    }

    #[test]
    fn interest_scoped_algorithms_send_less() {
        let t = run_parasite_table(&[4, 10, 40], 3, 10);
        let sent = |i: usize| t.rows[i].values[2].mean;
        assert!(
            sent(0) < sent(1),
            "daMulticast {} vs broadcast {}",
            sent(0),
            sent(1)
        );
        assert!(
            sent(2) < sent(1),
            "multicast beats broadcast on root events"
        );
    }
}
