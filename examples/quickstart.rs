//! Quickstart: build the paper's 3-level topology, publish one event in
//! the leaf group, and watch it climb to the root — with the paper's four
//! headline properties checked along the way.
//!
//! Run with: `cargo run --example quickstart`

use da_core::{ChannelConfig, Family, Kind};
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Sec. VII-A setting: S_T0 = 10, S_T1 = 100, S_T2 = 1000,
    // b = 3, c = 5, g = 5, a = 1, z = 3.
    let net = Network::linear(&[10, 100, 1000], TopicParams::default(), 42)?;
    let hierarchy = std::sync::Arc::clone(net.hierarchy());
    let groups = net.groups().to_vec();
    println!("topology:\n{hierarchy}");

    // 85% channel success probability, like the paper's simulation.
    let sim = SimConfig::default()
        .with_seed(42)
        .with_channel(ChannelConfig::paper_default());
    let mut engine = Engine::new(sim, net.into_processes());

    // Publish one event in the leaf group T2.
    let publisher = groups[2].members[0];
    let event_id = engine.process_mut(publisher).publish("goal: 1-0 (87')");
    println!(
        "published {event_id} at {publisher} in group {}",
        hierarchy.path(groups[2].topic)
    );

    let rounds = engine.run_until_quiescent(64);
    println!("quiescent after {rounds} rounds\n");

    // Per-group delivery counts.
    for (level, group) in groups.iter().enumerate().rev() {
        let delivered = group
            .members
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(event_id))
            .count();
        println!(
            "group T{level} ({}): {delivered}/{} delivered",
            hierarchy.path(group.topic),
            group.members.len()
        );
    }

    // The paper's headline properties.
    let total = |kind| engine.tally().total(Family::Da, kind);
    println!("\nevent messages (intra-group): {}", total(Kind::Intra));
    println!("event messages (inter-group): {}", total(Kind::InterOut));
    println!("parasite deliveries:          {}", total(Kind::Parasite));
    assert_eq!(
        total(Kind::Parasite),
        0,
        "daMulticast never delivers parasites"
    );

    let mean_memory: f64 = engine
        .processes()
        .map(|(_, p)| p.memory_entries() as f64)
        .sum::<f64>()
        / engine.population() as f64;
    println!("mean membership entries/process: {mean_memory:.1} (ln(S)+c+z bound)");
    Ok(())
}
