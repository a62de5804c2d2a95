//! A stock-ticker feed on the **dynamic** protocol stack: processes join
//! with a few same-group contacts, discover super contacts through the
//! overlay bootstrap (Fig. 4 of the paper), keep them fresh with the
//! maintenance task (Fig. 6), and then disseminate a stream of ticks.
//!
//! Hierarchy: `.` (all markets) ← `.tech` ← `.tech.gpu`. Market-wide
//! analysts subscribe at the root, sector analysts at `.tech`, and GPU
//! traders at `.tech.gpu`, where the ticks are published.
//!
//! Run with: `cargo run --example stock_ticker`

use da_core::{ChannelConfig, Family, Kind};
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 5 market analysts (root), 15 sector analysts, 40 GPU traders.
    let sizes = [5usize, 15, 40];
    let params = TopicParams::paper_default()
        .with_g(12.0) // small groups: strengthen the inter-group links
        .with_a(3.0);
    let net = Network::dynamic_linear(&sizes, params, 2024)?;
    let groups = net.groups().to_vec();
    let sim = SimConfig::default()
        .with_seed(2024)
        .with_channel(ChannelConfig::default().with_success_probability(0.95));
    let mut engine = Engine::new(sim, net.into_processes());

    // Phase 1: let joins, membership gossip, and the bootstrap settle.
    engine.run_rounds(40);
    let linked = groups[2]
        .members
        .iter()
        .filter(|&&p| !engine.process(p).super_tables()[0].is_empty())
        .count();
    println!(
        "after bootstrap: {linked}/{} GPU traders hold super contacts",
        groups[2].members.len()
    );

    // Phase 2: publish a stream of ticks from rotating traders.
    let ticks = 10;
    let mut ids = Vec::new();
    for i in 0..ticks {
        let trader = groups[2].members[i * 3 % groups[2].members.len()];
        let id = engine
            .process_mut(trader)
            .publish(format!("GPUCO {:.2}", 100.0 + i as f64));
        ids.push(id);
        engine.run_rounds(6);
    }
    engine.run_rounds(30);

    // Every tick should reach (nearly) all GPU traders and climb to both
    // analyst tiers.
    let mut reached = [0usize; 3];
    for &id in &ids {
        for (level, group) in groups.iter().enumerate() {
            let got = group
                .members
                .iter()
                .filter(|&&p| engine.process(p).has_delivered(id))
                .count();
            if got * 2 > group.members.len() {
                reached[level] += 1;
            }
        }
    }
    println!(
        "ticks reaching a majority of market analysts: {}/{ticks}",
        reached[0]
    );
    println!(
        "ticks reaching a majority of sector analysts: {}/{ticks}",
        reached[1]
    );
    println!(
        "ticks reaching a majority of GPU traders:     {}/{ticks}",
        reached[2]
    );
    assert!(reached[2] >= 9, "tick stream must blanket its own group");
    assert!(reached[1] >= 7, "sector analysts follow the GPU feed");

    // Memory stays two tables per process no matter the hierarchy depth.
    let max_mem = engine
        .processes()
        .map(|(_, p)| p.memory_entries())
        .max()
        .unwrap_or(0);
    println!("max membership entries at any process: {max_mem}");
    assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);
    Ok(())
}
