//! Multiple inheritance (Sec. VIII of the paper): a topic with **two**
//! supertopics, served by one supertopic table per inclusion edge.
//!
//! DAG:
//!
//! ```text
//!        (root)
//!        /    \
//!    sport    switzerland
//!        \    /
//!       ski-racing
//! ```
//!
//! A ski-racing event must reach sport fans *and* Switzerland watchers —
//! two different communities on two different edges — while a plain
//! football event stays inside the sport subtree. The protocol is the
//! paper's own `DaProcess`: `StaticNetwork` hands each ski-racing
//! devotee one supertable per direct supertopic.
//!
//! Run with: `cargo run --example multi_inheritance`

use da_core::ProcessId;
use da_simnet::{Engine, SimConfig};
use da_topics::TopicHierarchy;
use damulticast::{GroupSpec, ParamMap, StaticNetwork, TopicParams};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut hierarchy = TopicHierarchy::new();
    let swiss = hierarchy.insert(".switzerland")?;
    let ski = hierarchy.insert(".sport.ski-racing")?;
    hierarchy.add_supertopic(ski, swiss)?;
    let sport = hierarchy
        .resolve(".sport")
        .expect("created with its subtopic");

    // Communities: 5 generalists (root), 12 sport fans, 12 Switzerland
    // watchers, 20 ski-racing devotees.
    let groups = [
        (hierarchy.root(), 0..5),
        (sport, 5..17),
        (swiss, 17..29),
        (ski, 29..49),
    ]
    .into_iter()
    .map(|(topic, pids)| GroupSpec {
        topic,
        members: pids.map(ProcessId).collect(),
    })
    .collect();
    let params = ParamMap::uniform(TopicParams::paper_default().with_g(30.0).with_a(3.0));
    let net = StaticNetwork::from_groups(Arc::new(hierarchy), groups, params, 11)?;

    // Memory check before running: a ski fan holds one topic table plus
    // TWO z-sized supertables (one per inclusion edge) — not one table per
    // topic in the DAG.
    let procs = net.into_processes();
    let fan = &procs[30];
    println!(
        "ski fan memory: {} entries (topic table {} + 2 edges × z {})",
        fan.memory_entries(),
        fan.topic_table().len(),
        fan.memory_entries() - fan.topic_table().len(),
    );

    let mut engine = Engine::new(SimConfig::default().with_seed(11), procs);
    let gold = engine.process_mut(ProcessId(35)).publish("downhill gold!");
    let goal = engine.process_mut(ProcessId(8)).publish("football goal");
    engine.run_until_quiescent(64);

    let count = |range: std::ops::Range<u32>, id| {
        range
            .filter(|&i| engine.process(ProcessId(i)).has_delivered(id))
            .count()
    };

    println!("\nski-racing event ({gold}):");
    println!("  ski devotees          {:>2}/20", count(29..49, gold));
    println!(
        "  sport fans            {:>2}/12  (edge 1)",
        count(5..17, gold)
    );
    println!(
        "  switzerland watchers  {:>2}/12  (edge 2)",
        count(17..29, gold)
    );
    println!("  generalists           {:>2}/5", count(0..5, gold));
    assert!(count(5..17, gold) >= 10, "sport edge must carry the event");
    assert!(count(17..29, gold) >= 10, "swiss edge must carry the event");

    println!("\nfootball event ({goal}):");
    println!("  sport fans            {:>2}/12", count(5..17, goal));
    println!(
        "  switzerland watchers  {:>2}/12  (must be 0)",
        count(17..29, goal)
    );
    println!(
        "  ski devotees          {:>2}/20  (must be 0)",
        count(29..49, goal)
    );
    assert_eq!(count(17..29, goal), 0, "football is not Swiss news");
    assert_eq!(count(29..49, goal), 0, "events never flow downwards");

    assert_eq!(engine.counters().get("da.parasite"), 0);
    println!("\nparasite deliveries: 0 — both edges respected, no leakage");
    Ok(())
}
