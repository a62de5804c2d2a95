//! The comparison tables of Sec. VI-E: message complexity, memory
//! complexity, and the reliability-tuning equivalences, for daMulticast
//! and the three baselines — measured against the analytical model.

use crate::report::Table;
use crate::runner::run_trials;
use crate::scenario::{first_standing, publish_and_settle, run_scenario, ScenarioConfig};
use crate::stats::Summary;
use crate::substrate::Substrate;
use da_analysis::{complexity, memory, tuning};
use da_baselines::{
    build_broadcast_network, build_hierarchical_network, build_multicast_network, GossipProcess,
    InterestMap,
};
use da_core::Family::{self, Broadcast, Hierarchical, Multicast};
use da_core::{FailureModel, FaultConfig, Kind, ProcessId, RunConfig, Tally};
use da_membership::FanoutRule;
use da_runtime::Shutdown;
use damulticast::EventId;

/// Draws a baseline's population over an interest map, by seed.
type Build = fn(&InterestMap, u64) -> Vec<GossipProcess>;

/// The three baselines as every comparison table runs them, on one
/// linear topology with `b = 3`, the `ln(S) + 5` fanout and `⌈√n⌉`
/// hierarchical groups: the row name, the counter family and the builder.
pub(crate) const BASELINES: [(&str, Family, Build); 3] = [
    ("gossip broadcast", Broadcast, |interests, seed| {
        build_broadcast_network(interests, 3.0, FANOUT, seed).expect("population non-empty")
    }),
    ("gossip multicast", Multicast, |interests, seed| {
        build_multicast_network(interests, 3.0, FANOUT, seed).expect("population non-empty")
    }),
    ("hierarchical broadcast", Hierarchical, |interests, seed| {
        let n_groups = hierarchical_groups(interests.population());
        build_hierarchical_network(interests, n_groups, 3.0, FANOUT, FANOUT, seed)
            .expect("valid partition")
    }),
];

/// The event messages `family` sent, through tables of every kind.
pub(crate) fn sends(tally: &Tally, family: Family) -> u64 {
    let sends = [Kind::Sent, Kind::SentIntra, Kind::SentInter];
    sends.map(|kind| tally.total(family, kind)).iter().sum()
}

/// The fanout rule of every comparison: `ln(S) + 5`.
pub(crate) const FANOUT: FanoutRule = FanoutRule::LnPlusC { c: 5.0 };

/// The hierarchical baseline's group count for a population of `n`.
fn hierarchical_groups(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// Levels of the comparison topology, bottom-up, as analysis inputs.
fn analysis_chain(group_sizes: &[usize], c: f64) -> Vec<complexity::GroupLevel> {
    group_sizes
        .iter()
        .rev()
        .map(|&s| complexity::GroupLevel {
            s,
            c,
            g: 5.0,
            a: 1.0,
            z: 3,
            p_succ: 1.0,
        })
        .collect()
}

/// Regenerates the Sec. VI-E.1/VI-E.2 comparison: measured and analytic
/// message counts plus measured and analytic per-process memory, for the
/// four algorithms on the same topology.
///
/// Channels are reliable and the `ln(S) + c` fanout of the analysis is
/// used, so measured counts are directly comparable to the closed forms.
#[must_use]
pub fn run_complexity_table(group_sizes: &[usize], trials: usize, seed: u64) -> Table<String> {
    let c = 5.0;
    let fanout = FanoutRule::LnPlusC { c };
    let n: usize = group_sizes.iter().sum();
    let interests = InterestMap::linear(group_sizes);
    let leaf_publisher = ProcessId::from_index(n - 1);
    let chain = analysis_chain(group_sizes, c);

    let mut table = Table::new(
        "Table complexity comparison",
        "algorithm",
        vec![
            "messages (measured)".into(),
            "messages (analytic)".into(),
            "bandwidth bytes (measured)".into(),
            "memory entries/process (measured)".into(),
            "memory entries/process (analytic)".into(),
        ],
    );

    // --- daMulticast -------------------------------------------------
    let da_config = ScenarioConfig {
        group_sizes: group_sizes.to_vec(),
        faults: FaultConfig::default(),
        ..ScenarioConfig::paper_default()
    }
    .with_fanout(fanout);
    let da = run_trials(trials, seed, |s| {
        let out = run_scenario(&da_config, Substrate::Sim, s);
        let bytes = out.ledger.bytes_sent as f64;
        vec![out.total_event_messages, bytes]
    });
    // Memory: a leaf subscriber's ln(S)+c topic table plus z supertable
    // entries; measured from a freshly built network.
    let da_mem = {
        let net = damulticast::Network::linear(
            group_sizes,
            damulticast::TopicParams::paper_default().with_fanout(fanout),
            seed,
        )
        .expect("valid topology");
        let procs = net.into_processes();
        let total: usize = procs
            .iter()
            .map(damulticast::DaProcess::memory_entries)
            .sum();
        total as f64 / procs.len() as f64
    };
    let leaf_s = *group_sizes.last().expect("non-empty");
    table.push_row(
        "daMulticast",
        vec![
            da[0],
            Summary::exact(complexity::damulticast_messages(&chain)),
            da[1],
            Summary::exact(da_mem),
            Summary::exact(memory::damulticast_memory(leaf_s, c, 3)),
        ],
    );

    // The baselines: one leaf publication each, on reliable channels.
    let n_groups = hierarchical_groups(n);
    let m = n / n_groups;
    // The multicast chain-average: leaf members hold 1 table, root members t.
    let levels: Vec<(usize, f64)> = group_sizes.iter().map(|&s| (s, c)).collect();
    let analytic = [
        (
            complexity::broadcast_messages(n, c),
            memory::broadcast_memory(n, c),
        ),
        (
            complexity::multicast_messages(&chain),
            memory::multicast_memory(&levels),
        ),
        (
            complexity::hierarchical_messages(n_groups, m, c, c),
            memory::hierarchical_memory(n_groups, m, c, c),
        ),
    ];
    for ((name, family, build), (messages, entries)) in BASELINES.into_iter().zip(analytic) {
        let measured = run_trials(trials, seed, |s| {
            let procs = build(&interests, s);
            let mem: usize = procs.iter().map(GossipProcess::memory_entries).sum();
            let mem = mem as f64 / procs.len() as f64;
            let config = RunConfig::default().with_seed(s);
            let publish = |p: &mut GossipProcess| p.publish("bench");
            let out =
                publish_and_settle(Substrate::Sim, config, procs, leaf_publisher, publish, 64).2;
            let sent = sends(&out.tally, family) as f64;
            vec![sent, out.ledger.bytes_sent as f64, mem]
        });
        table.push_row(
            name,
            vec![
                measured[0],
                Summary::exact(messages),
                measured[1],
                measured[2],
                Summary::exact(entries),
            ],
        );
    }

    table
}

/// The fraction of a trial's processes alive at its end that delivered
/// its publication.
fn survivor_coverage((event, _, out): (EventId, u64, Shutdown<GossipProcess>)) -> f64 {
    let survivors: Vec<&GossipProcess> = out
        .processes
        .iter()
        .zip(&out.statuses)
        .filter(|(_, status)| status.is_alive())
        .map(|(p, _)| p)
        .collect();
    let got = survivors.iter().filter(|p| p.has_delivered(event)).count();
    got as f64 / survivors.len().max(1) as f64
}

/// Regenerates the Sec. VI-E.3 tuning table: for a grid of inter-group
/// propagation probabilities `pit`, the valid `c` ranges against each
/// baseline, the matching `c1` at a reference `c`, and the supertable-size
/// bounds (Appendix eqs. 19, 25, 30).
#[must_use]
pub fn run_tuning_table(t: usize, n: usize, s_t: usize, n_groups: usize) -> Table<f64> {
    let c_ref = 1.0;
    let mut table = Table::new(
        "Table tuning equivalences",
        "pit",
        vec![
            "c max vs multicast".into(),
            format!("c1 vs multicast at c={c_ref}"),
            "z bound vs multicast".into(),
            "c max vs broadcast".into(),
            format!("c1 vs broadcast at c={c_ref}"),
            "z bound vs broadcast".into(),
            "c min vs hierarchical".into(),
            "c max vs hierarchical".into(),
            "z bound vs hierarchical".into(),
        ],
    );
    for &pit in &[0.90, 0.95, 0.99, 0.995, 0.999] {
        let mc_range = tuning::multicast_c_range(pit);
        let bc_range = tuning::broadcast_c_range(t, pit);
        let hc_range = tuning::hierarchical_c_range(t, n_groups, pit);
        let row = vec![
            Summary::exact(mc_range.hi),
            Summary::exact(tuning::c1_vs_multicast(c_ref, pit).unwrap_or(f64::NAN)),
            Summary::exact(tuning::z_bound_vs_multicast(t, s_t, c_ref, pit)),
            Summary::exact(bc_range.hi),
            Summary::exact(tuning::c1_vs_broadcast(c_ref, t, pit).unwrap_or(f64::NAN)),
            Summary::exact(tuning::z_bound_vs_broadcast(n, s_t, t, c_ref, pit)),
            Summary::exact(hc_range.lo),
            Summary::exact(hc_range.hi),
            Summary::exact(tuning::z_bound_vs_hierarchical(n_groups, t, c_ref, pit)),
        ];
        table.push_row(pit, row);
    }
    table
}

/// Regenerates the measured side of the Sec. VI-E.3 reliability
/// comparison: the four algorithms on one topology under stillborn
/// failures, reporting the fraction of *alive interested* processes that
/// deliver a leaf publication.
///
/// The paper's analytical ordering — multicast ≥ broadcast ≥ daMulticast
/// ≥ hierarchical in the general case, with daMulticast tunable into the
/// pack — should be visible at the failure levels where the inter-group
/// links are stressed.
#[must_use]
pub fn run_reliability_table(
    group_sizes: &[usize],
    alive_fractions: &[f64],
    trials: usize,
    seed: u64,
) -> Table<f64> {
    let n: usize = group_sizes.iter().sum();
    let interests = InterestMap::linear(group_sizes);

    let columns = std::iter::once("daMulticast").chain(BASELINES.map(|(name, ..)| name));
    let mut table = Table::new(
        "Table reliability comparison",
        "alive fraction",
        columns.map(String::from).collect(),
    );

    for &alive in alive_fractions {
        let failure = FailureModel::Stillborn {
            alive_fraction: alive,
        };
        // daMulticast through the scenario runner.
        let da_config = ScenarioConfig {
            group_sizes: group_sizes.to_vec(),
            faults: FaultConfig {
                failure: failure.clone(),
                ..FaultConfig::default()
            },
            ..ScenarioConfig::paper_default()
        }
        .with_fanout(FANOUT);
        let row = run_trials(trials, seed, |s| {
            let out = run_scenario(&da_config, Substrate::Sim, s);
            // Mean over levels of the survivors' delivery fraction.
            let da = out.delivered_alive_fraction.iter().sum::<f64>()
                / out.delivered_alive_fraction.len() as f64;

            // Baselines: publish at the last alive process (a leaf);
            // measure the fraction of alive processes that delivered.
            let last_first = (0..n).rev().map(ProcessId::from_index);
            let Some(publisher) = first_standing(&failure, n, s, last_first) else {
                return vec![da, 0.0, 0.0, 0.0];
            };
            let config = RunConfig::default()
                .with_seed(s)
                .with_failures(failure.clone());
            let mut row = vec![da];
            for (_, _, build) in BASELINES {
                let publish = |p: &mut GossipProcess| p.publish("rel");
                let procs = build(&interests, s);
                let out = publish_and_settle(
                    Substrate::Sim,
                    config.clone(),
                    procs,
                    publisher,
                    publish,
                    96,
                );
                row.push(survivor_coverage(out));
            }
            row
        });
        table.push_row(alive, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Row;

    #[test]
    fn complexity_table_small_scale() {
        let t = run_complexity_table(&[3, 10, 40], 3, 5);
        assert_eq!(t.rows.len(), 4);
        let da_measured = t.rows[0].values[0].mean;
        let bc_measured = t.rows[1].values[0].mean;
        assert!(
            bc_measured > da_measured,
            "broadcast ({bc_measured}) must out-message daMulticast ({da_measured})"
        );
        // Measured counts land within 3× of the closed forms (the
        // analysis counts one send per infected process; gossip's
        // duplicate receipts add a constant factor).
        for Row { key: name, values } in &t.rows {
            let measured = values[0].mean;
            let analytic = values[1].mean;
            assert!(
                measured < analytic * 3.0 + 100.0,
                "{name}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn memory_ordering_matches_paper() {
        let t = run_complexity_table(&[3, 10, 40], 2, 8);
        let mem = |i: usize| t.rows[i].values[3].mean;
        // daMulticast's measured memory stays below gossip multicast's.
        assert!(
            mem(0) < mem(2),
            "daMulticast {} should beat multicast {}",
            mem(0),
            mem(2)
        );
    }

    #[test]
    fn tuning_table_has_all_rows() {
        let t = run_tuning_table(3, 1110, 1000, 33);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            // z bound vs multicast must admit the paper's z = 3 at high pit.
            if row.key >= 0.99 {
                assert!(row.values[2].mean > 3.0);
            }
        }
    }

    #[test]
    fn reliability_table_orders_algorithms() {
        let t = run_reliability_table(&[3, 10, 40], &[1.0, 0.6], 4, 21);
        assert_eq!(t.rows.len(), 2);
        // At full aliveness all four algorithms blanket the survivors.
        let full = &t.rows[0];
        for v in &full.values {
            assert!(v.mean > 0.9, "full-aliveness reliability {}", v.mean);
        }
        // Under failures every value is still a probability.
        for v in &t.rows[1].values {
            assert!((0.0..=1.0).contains(&v.mean));
        }
    }
}
