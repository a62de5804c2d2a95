//! Property tests on the baseline algorithms: structural laws of the
//! interest map and the three network builders, over random topologies.

use da_baselines::{
    build_broadcast_network, build_hierarchical_network, build_multicast_network, InterestMap,
};
use da_core::ProcessId;
use da_membership::FanoutRule;
use da_simnet::{Engine, SimConfig};
use proptest::prelude::*;

fn arb_sizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..15, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The audience of a topic is exactly the subscribers of the topic and
    /// its ancestors; audiences are nested along the chain.
    #[test]
    fn audiences_nest_along_the_chain(sizes in arb_sizes()) {
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
    }

    /// Broadcast: every process holds the same-size global table drawn
    /// from the whole population.
    #[test]
    fn broadcast_tables_global(sizes in arb_sizes(), seed in 0u64..1_000) {
        let m = InterestMap::linear(&sizes);
        let procs = build_broadcast_network(&m, 3.0, FanoutRule::default(), seed).unwrap();
        prop_assert_eq!(procs.len(), m.population());
        let expected = da_membership::kmg_view_size(3.0, m.population());
        for p in &procs {
            prop_assert_eq!(p.memory_entries(), expected.min(m.population() - 1));
        }
    }

    /// Multicast: a process joins exactly the groups of its own topic and
    /// the subtopics of it — its group count equals the number of
    /// descendants of its interest (on a linear chain: levels below it,
    /// inclusive).
    #[test]
    fn multicast_group_membership_exact(sizes in arb_sizes(), seed in 0u64..1_000) {
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
    }

    /// Hierarchical: the partition covers the population exactly once and
    /// the per-process memory is two views.
    #[test]
    fn hierarchical_partition_lawful(
        sizes in arb_sizes(),
        groups_frac in 0.1f64..0.9,
        seed in 0u64..1_000,
    ) {
        let m = InterestMap::linear(&sizes);
        let n = m.population();
        let n_groups = ((n as f64 * groups_frac) as usize).clamp(1, n);
        let procs = build_hierarchical_network(
            &m, n_groups, 3.0, FanoutRule::default(), FanoutRule::default(), seed,
        )
        .unwrap();
        prop_assert_eq!(procs.len(), n);
        for p in &procs {
            prop_assert!(p.memory_entries() < n * 2);
        }
    }

    /// Cross-algorithm law: for any topology and any leaf event, the
    /// delivered sets of multicast and broadcast agree on reliable
    /// channels (both must blanket the audience), while their *reception*
    /// footprints differ by exactly the parasite count.
    #[test]
    fn reception_footprints_differ_by_parasites(
        sizes in prop::collection::vec(2usize..10, 2..4),
        seed in 0u64..500,
    ) {
        let m = InterestMap::linear(&sizes);
        let n = m.population();
        let root_publisher = ProcessId(0);
        let fanout = FanoutRule::LnPlusC { c: 5.0 };

        let procs = build_broadcast_network(&m, 3.0, fanout, seed).unwrap();
        let mut e = Engine::new(SimConfig::default().with_seed(seed), procs);
        e.process_mut(root_publisher).publish("prop");
        e.run_until_quiescent(96);
        let bc_delivered = e.counters().get("bc.delivered");
        let bc_parasites = e.counters().get("bc.parasite");
        // Everyone receives exactly once: delivered + parasites = n.
        prop_assert_eq!(bc_delivered + bc_parasites, n as u64);
        // Deliveries equal the audience of the root topic.
        prop_assert_eq!(bc_delivered as usize, sizes[0]);

        let procs = build_multicast_network(&m, 3.0, fanout, seed).unwrap();
        let mut e = Engine::new(SimConfig::default().with_seed(seed), procs);
        e.process_mut(root_publisher).publish("prop");
        e.run_until_quiescent(96);
        prop_assert_eq!(e.counters().get("mc.delivered") as usize, sizes[0]);
        prop_assert_eq!(e.counters().get("mc.parasite"), 0);
    }
}
