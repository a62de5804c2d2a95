//! The parasite-message claim (Sec. I and VI-E of the paper): daMulticast
//! never delivers an event to a process that did not subscribe to its
//! topic; interest-oblivious baselines cannot avoid it.
//!
//! The worst case for the baselines is an event published on the *root*
//! topic of the paper's topology: only the 10 root subscribers want it,
//! yet broadcast and hierarchical broadcast push it through all 1110
//! processes.

use crate::report::KeyedTable;
use crate::runner::run_trials;
use crate::scenario::{publish_and_settle, run_scenario, ScenarioConfig};
use crate::substrate::Substrate;
use da_baselines::{
    build_broadcast_network, build_hierarchical_network, build_multicast_network, BroadcastProcess,
    HierarchicalProcess, InterestMap, MulticastProcess,
};
use da_core::{Counters, FaultConfig, ProcessId, RunConfig};
use da_membership::FanoutRule;

/// Runs the four algorithms with one root-topic publication each and
/// tabulates deliveries, parasites, and event traffic.
#[must_use]
pub fn run_parasite_table(group_sizes: &[usize], trials: usize, seed: u64) -> KeyedTable {
    let b = 3.0;
    let fanout = FanoutRule::LnPlusC { c: 5.0 };
    let n: usize = group_sizes.iter().sum();
    let n_groups = (n as f64).sqrt().ceil() as usize;
    let interests = InterestMap::linear(group_sizes);
    let root_publisher = ProcessId(0);

    let mut table = KeyedTable::new(
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
    .with_fanout(fanout);
    let da = run_trials(trials, seed, |s| {
        let out = run_scenario(&da_config, Substrate::Sim, s);
        let delivered_root = out.delivered_fraction[0] * group_sizes[0] as f64;
        vec![delivered_root, out.parasites, out.total_event_messages]
    });
    table.push_row("daMulticast", da);

    // The baselines count under `{prefix}.*`; every `sent*` counter is an
    // event send.
    let measured = |counters: &Counters, prefix: &str| {
        ["delivered", "parasite", "sent"]
            .map(|name| counters.sum_prefix(&format!("{prefix}.{name}")) as f64)
            .to_vec()
    };

    let bc = run_trials(trials, seed, |s| {
        let procs =
            build_broadcast_network(&interests, b, fanout, s).expect("population non-empty");
        let config = RunConfig::default().with_seed(s);
        let publish = |p: &mut BroadcastProcess| p.publish("root news");
        let out = publish_and_settle(Substrate::Sim, config, procs, root_publisher, publish, 64).2;
        measured(&out.counters, "bc")
    });
    table.push_row("gossip broadcast", bc);

    let mc = run_trials(trials, seed, |s| {
        let procs =
            build_multicast_network(&interests, b, fanout, s).expect("population non-empty");
        let config = RunConfig::default().with_seed(s);
        let publish = |p: &mut MulticastProcess| p.publish("root news");
        let out = publish_and_settle(Substrate::Sim, config, procs, root_publisher, publish, 64).2;
        measured(&out.counters, "mc")
    });
    table.push_row("gossip multicast", mc);

    let hc = run_trials(trials, seed, |s| {
        let procs = build_hierarchical_network(&interests, n_groups, b, fanout, fanout, s)
            .expect("valid partition");
        let config = RunConfig::default().with_seed(s);
        let publish = |p: &mut HierarchicalProcess| p.publish("root news");
        let out = publish_and_settle(Substrate::Sim, config, procs, root_publisher, publish, 64).2;
        measured(&out.counters, "hc")
    });
    table.push_row("hierarchical broadcast", hc);

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parasite_freedom_separates_the_algorithms() {
        let t = run_parasite_table(&[4, 10, 40], 3, 9);
        let parasites = |i: usize| t.rows[i].1[1].mean;
        assert_eq!(parasites(0), 0.0, "daMulticast");
        assert!(parasites(1) > 10.0, "broadcast breeds parasites");
        assert_eq!(parasites(2), 0.0, "multicast groups match interests");
        assert!(parasites(3) > 10.0, "hierarchical breeds parasites");
    }

    #[test]
    fn interest_scoped_algorithms_send_less() {
        let t = run_parasite_table(&[4, 10, 40], 3, 10);
        let sent = |i: usize| t.rows[i].1[2].mean;
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
