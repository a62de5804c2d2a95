//! Property tests on the baseline algorithms: structural laws of the
//! interest map and the three network builders, over random topologies.

use da_baselines::{
    build_broadcast_network, build_hierarchical_network, build_multicast_network, InterestMap,
};
use da_core::ProcessId;
use da_membership::FanoutRule;
use da_simnet::{Engine, SimConfig};
use da_tape::{check_cases, prop_assert, prop_assert_eq, replay, CaseResult, Tape};

fn arb_sizes(t: &mut Tape) -> Vec<usize> {
    t.vec(1..4, |t| t.range(1usize..15))
}

/// The audience of a topic is exactly the subscribers of the topic and
/// its ancestors; audiences are nested along the chain.
#[test]
fn audiences_nest_along_the_chain() {
    check_cases("audiences_nest_along_the_chain", 32, |t| {
        let sizes = arb_sizes(t);
        let m = InterestMap::linear(&sizes);
        let h = m.hierarchy().clone();
        let mut prev: Option<Vec<ProcessId>> = None;
        for id in h.iter() {
            let audience = m.audience(id);
            for &p in &audience {
                prop_assert!(h.includes_or_eq(m.interest_of(p), id));
            }
            if let Some(prev) = prev {
                // A deeper topic's audience contains the shallower one's.
                for p in prev {
                    prop_assert!(audience.contains(&p));
                }
            }
            prev = Some(audience);
        }
        Ok(())
    });
}

/// Broadcast: every process holds the same-size global table drawn
/// from the whole population.
#[test]
fn broadcast_tables_global() {
    check_cases("broadcast_tables_global", 32, |t| {
        let sizes = arb_sizes(t);
        let seed = t.range(0u64..1_000);
        let m = InterestMap::linear(&sizes);
        let procs = build_broadcast_network(&m, 3.0, FanoutRule::default(), seed).unwrap();
        prop_assert_eq!(procs.len(), m.population());
        let expected = da_membership::kmg_view_size(3.0, m.population());
        for p in &procs {
            prop_assert_eq!(p.memory_entries(), expected.min(m.population() - 1));
        }
        Ok(())
    });
}

/// Multicast: a process joins exactly the groups of its own topic and
/// the subtopics of it — its group count equals the number of
/// descendants of its interest (on a linear chain: levels below it,
/// inclusive).
#[test]
fn multicast_group_membership_exact() {
    check_cases("multicast_group_membership_exact", 32, |t| {
        let sizes = arb_sizes(t);
        let seed = t.range(0u64..1_000);
        let m = InterestMap::linear(&sizes);
        let procs = build_multicast_network(&m, 3.0, FanoutRule::default(), seed).unwrap();
        let h = m.hierarchy().clone();
        for p in &procs {
            let interest = m.interest_of(p.id());
            let expected = h
                .descendants(interest)
                .filter(|&t| !m.audience(t).is_empty())
                .count();
            prop_assert_eq!(p.tables().len(), expected);
        }
        Ok(())
    });
}

/// Hierarchical: the partition covers the population exactly once and
/// the per-process memory is two views.
#[test]
fn hierarchical_partition_lawful() {
    check_cases("hierarchical_partition_lawful", 32, |t| {
        let sizes = arb_sizes(t);
        let groups_frac = t.range(0.1f64..0.9);
        let seed = t.range(0u64..1_000);
        let m = InterestMap::linear(&sizes);
        let n = m.population();
        let n_groups = ((n as f64 * groups_frac) as usize).clamp(1, n);
        let procs = build_hierarchical_network(
            &m,
            n_groups,
            3.0,
            FanoutRule::default(),
            FanoutRule::default(),
            seed,
        )
        .unwrap();
        prop_assert_eq!(procs.len(), n);
        for p in &procs {
            prop_assert!(p.memory_entries() < n * 2);
        }
        Ok(())
    });
}

/// Cross-algorithm law: for any topology and any leaf event, the
/// delivered sets of multicast and broadcast agree on reliable
/// channels (both must blanket the audience), while their *reception*
/// footprints differ by exactly the parasite count.
///
/// Blanketing is certain, not merely likely: with `b` and the fanout at
/// the population `n`, every table is its whole group and every relay
/// sends to all of it (`kmg_view_size` and `FanoutRule::fanout` both cap
/// at `S − 1`). An `ln S + 5` gossip misses a process with probability
/// about `e^-5` per case.
fn footprints_differ_by_parasites(t: &mut Tape) -> CaseResult {
    let sizes = t.vec(2..4, |t| t.range(2usize..10));
    let seed = t.range(0u64..500);
    let m = InterestMap::linear(&sizes);
    let n = m.population();
    let root_publisher = ProcessId(0);
    let (b, fanout) = (n as f64, FanoutRule::Fixed(n));

    let procs = build_broadcast_network(&m, b, fanout, seed).unwrap();
    let mut e = Engine::new(SimConfig::default().with_seed(seed), procs);
    e.process_mut(root_publisher).publish("prop");
    e.run_until_quiescent(96);
    let bc_delivered = e.counters().get("bc.delivered");
    let bc_parasites = e.counters().get("bc.parasite");
    // Everyone receives exactly once: delivered + parasites = n.
    prop_assert_eq!(bc_delivered + bc_parasites, n as u64);
    // Deliveries equal the audience of the root topic.
    prop_assert_eq!(bc_delivered as usize, sizes[0]);

    let procs = build_multicast_network(&m, b, fanout, seed).unwrap();
    let mut e = Engine::new(SimConfig::default().with_seed(seed), procs);
    e.process_mut(root_publisher).publish("prop");
    e.run_until_quiescent(96);
    prop_assert_eq!(e.counters().get("mc.delivered") as usize, sizes[0]);
    prop_assert_eq!(e.counters().get("mc.parasite"), 0);
    Ok(())
}

#[test]
fn reception_footprints_differ_by_parasites() {
    check_cases(
        "reception_footprints_differ_by_parasites",
        32,
        footprints_differ_by_parasites,
    );
}

/// The shrunk case `PROPTEST_SEED=48` found under an `ln S + 5` gossip
/// over `⌈4 ln S⌉` views: groups of 9 and 8, seed 400, where broadcast
/// reached 16 of the 17 processes.
#[test]
fn a_full_gossip_reaches_all_seventeen() {
    replay(&[0, 7, 6, 400], footprints_differ_by_parasites);
}
