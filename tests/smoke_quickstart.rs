//! Tier-1 canary: the `examples/quickstart.rs` path, programmatically.
//!
//! One small three-level topology, one publication in the leaf group, and
//! the paper's two headline invariants checked: every leaf subscriber
//! delivers, and nobody receives an event for a topic it did not
//! subscribe to (zero parasites). Fast by design — if this fails, skip
//! the slower suites and fix the basics first.

use da_core::{Family, Kind};
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

#[test]
fn quickstart_small_topology_delivers_everywhere_without_parasites() {
    // Quickstart at one tenth scale, knobs pinned high like
    // `tests/e2e_dissemination.rs` so full coverage is deterministic in
    // practice (miss probability ≈ e^{-12} per group).
    let params = TopicParams::paper_default()
        .with_g(20.0)
        .with_a(3.0)
        .with_fanout(da_membership::FanoutRule::LnPlusC { c: 12.0 });
    let net = Network::linear(&[3, 10, 30], params, 7).expect("valid 3-level chain");
    let groups = net.groups().to_vec();
    let leaf = groups[2].members[0];

    let mut engine = Engine::new(SimConfig::default().with_seed(7), net.into_processes());
    let id = engine.process_mut(leaf).publish("smoke");
    engine.run_until_quiescent(64);

    // Full delivery at every level (the leaf topic is included by all).
    for (level, group) in groups.iter().enumerate() {
        let delivered = group
            .members
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(id))
            .count();
        assert_eq!(
            delivered,
            group.members.len(),
            "level {level}: {delivered}/{} delivered",
            group.members.len()
        );
    }

    // The paper's signature property: zero parasite deliveries.
    assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);

    // Exactly one delivery per interested process — no duplicates hidden
    // behind the per-group counts.
    let total_members: usize = groups.iter().map(|g| g.members.len()).sum();
    let total_delivered = engine
        .processes()
        .filter(|(_, p)| p.has_delivered(id))
        .count();
    assert_eq!(total_delivered, total_members);
}
