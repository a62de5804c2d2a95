//! End-to-end dissemination across the full crate stack: the paper's
//! topology, multiple publishers, both protocol modes.

use da_core::{ChannelConfig, Family, Kind};
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

/// The paper's topology at full scale, reliable channels: every
/// interested process delivers, nobody else does. Even on reliable
/// channels the inter-group hop is probabilistic (the p_sel election), so
/// the test pins the trade-off knobs high (g = 20, a = z) to make a missed
/// hop astronomically unlikely (< e^{-20}).
#[test]
fn paper_topology_full_coverage() {
    let params = TopicParams::paper_default().with_g(20.0).with_a(3.0);
    let net = Network::linear(&[10, 100, 1000], params, 1).unwrap();
    let groups = net.groups().to_vec();
    let mut engine = Engine::new(SimConfig::default().with_seed(1), net.into_processes());
    let id = engine.process_mut(groups[2].members[0]).publish("e2e");
    engine.run_until_quiescent(64);

    for (level, group) in groups.iter().enumerate() {
        let delivered = group
            .members
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(id))
            .count();
        assert!(
            delivered * 100 >= group.members.len() * 99,
            "level {level}: {delivered}/{} delivered",
            group.members.len()
        );
    }
    assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);
}

/// Events from different levels reach exactly their audiences. As in
/// [`paper_topology_full_coverage`], the knobs are pinned high (g, a for
/// the inter-group hop; an `ln S + 12` fanout for intra-group atomicity,
/// missing a process ≈ e^{-12}) so the exact counts below are not at the
/// mercy of one seed.
#[test]
fn concurrent_publications_have_disjoint_audiences() {
    let params = TopicParams::paper_default()
        .with_g(20.0)
        .with_a(3.0)
        .with_fanout(da_membership::FanoutRule::LnPlusC { c: 12.0 });
    let net = Network::linear(&[5, 25, 50], params, 2).unwrap();
    let groups = net.groups().to_vec();
    let mut engine = Engine::new(SimConfig::default().with_seed(2), net.into_processes());
    let leaf_event = engine.process_mut(groups[2].members[0]).publish("leaf");
    let mid_event = engine.process_mut(groups[1].members[0]).publish("mid");
    let root_event = engine.process_mut(groups[0].members[0]).publish("root");
    engine.run_until_quiescent(64);

    // Leaf event: everyone. Mid event: mid + root. Root event: root only.
    let count = |group: usize, id| {
        groups[group]
            .members
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(id))
            .count()
    };
    assert_eq!(count(2, leaf_event), 50);
    assert_eq!(count(1, leaf_event), 25);
    assert_eq!(count(0, leaf_event), 5);

    assert_eq!(count(2, mid_event), 0, "events never flow downwards");
    assert_eq!(count(1, mid_event), 25);
    assert_eq!(count(0, mid_event), 5);

    assert_eq!(count(2, root_event), 0);
    assert_eq!(count(1, root_event), 0);
    assert_eq!(count(0, root_event), 5);
}

/// Lossy channels still achieve the paper's headline reliability at full
/// aliveness.
#[test]
fn lossy_channels_high_reliability() {
    let net = Network::linear(&[10, 100, 1000], TopicParams::default(), 3).unwrap();
    let groups = net.groups().to_vec();
    let sim = SimConfig::default()
        .with_seed(3)
        .with_channel(ChannelConfig::paper_default()); // p_succ = 0.85
    let mut engine = Engine::new(sim, net.into_processes());
    let id = engine.process_mut(groups[2].members[5]).publish("lossy");
    engine.run_until_quiescent(64);

    let leaf_fraction = groups[2]
        .members
        .iter()
        .filter(|&&p| engine.process(p).has_delivered(id))
        .count() as f64
        / 1000.0;
    assert!(
        leaf_fraction > 0.95,
        "Fig. 10 at alive = 1: near-total coverage, got {leaf_fraction}"
    );
}

/// A 5-level chain: the event climbs every hop.
#[test]
fn deep_chain_climbs_to_root() {
    let net = Network::linear(&[4, 8, 16, 32, 64], TopicParams::default(), 4).unwrap();
    let groups = net.groups().to_vec();
    let mut engine = Engine::new(SimConfig::default().with_seed(4), net.into_processes());
    let id = engine
        .process_mut(groups[4].members[0])
        .publish("five levels up");
    engine.run_until_quiescent(128);
    for (level, group) in groups.iter().enumerate() {
        let delivered = group
            .members
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(id))
            .count();
        assert!(
            delivered == group.members.len(),
            "level {level}: {delivered}/{} delivered",
            group.members.len()
        );
    }
}

/// The dynamic stack bootstraps itself and then matches the static stack's
/// delivery behaviour.
#[test]
fn dynamic_stack_end_to_end() {
    let params = TopicParams::paper_default().with_g(15.0).with_a(3.0);
    let net = Network::dynamic_linear(&[6, 20, 60], params, 5).unwrap();
    let groups = net.groups().to_vec();
    let mut engine = Engine::new(SimConfig::default().with_seed(5), net.into_processes());
    engine.run_rounds(50); // joins + bootstrap + membership settle

    let id = engine
        .process_mut(groups[2].members[30])
        .publish("dynamic e2e");
    engine.run_rounds(40);

    let leaf = groups[2]
        .members
        .iter()
        .filter(|&&p| engine.process(p).has_delivered(id))
        .count();
    let root = groups[0]
        .members
        .iter()
        .filter(|&&p| engine.process(p).has_delivered(id))
        .count();
    assert!(leaf >= 55, "leaf coverage {leaf}/60");
    assert!(root >= 1, "event must climb to the root group");
    assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);
}

/// Multiple sequential publications keep working (sequence numbers, dedup
/// and membership state survive event after event).
#[test]
fn sustained_event_stream() {
    let net = Network::linear(&[5, 20], TopicParams::default(), 6).unwrap();
    let groups = net.groups().to_vec();
    let mut engine = Engine::new(SimConfig::default().with_seed(6), net.into_processes());
    let mut ids = Vec::new();
    for i in 0..10 {
        let publisher = groups[1].members[i % 20];
        ids.push(engine.process_mut(publisher).publish(format!("evt {i}")));
        engine.run_rounds(5);
    }
    engine.run_until_quiescent(64);
    // Gossip guarantees e^{-e^{-c}} ≈ 0.95 full-coverage per event at this
    // scale, not certainty: allow one straggler per event and demand most
    // events blanket the group.
    let mut complete = 0;
    for (i, id) in ids.iter().enumerate() {
        let got = groups[1]
            .members
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(*id))
            .count();
        assert!(got >= 19, "event {i} reached only {got}/20");
        if got == 20 {
            complete += 1;
        }
    }
    assert!(
        complete >= 7,
        "only {complete}/10 events achieved full coverage"
    );
    // Deliveries are at-most-once: never more than the 10 published leaf
    // events, and near-complete for every member.
    for &p in &groups[1].members {
        let n = engine.process(p).delivered().len();
        assert!((9..=10).contains(&n), "member delivered {n}/10");
    }
}
