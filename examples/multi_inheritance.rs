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
//! football event stays inside the sport subtree.
//!
//! Run with: `cargo run --example multi_inheritance`

use da_core::ProcessId;
use da_simnet::{Engine, SimConfig};
use da_topics::dag::TopicDag;
use damulticast::{DagNetwork, TopicParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut dag = TopicDag::new();
    let root = dag.root();
    let sport = dag.add_topic("sport", &[root])?;
    let swiss = dag.add_topic("switzerland", &[root])?;
    let ski = dag.add_topic("ski-racing", &[sport, swiss])?;

    // Communities: 5 generalists (root), 12 sport fans, 12 Switzerland
    // watchers, 20 ski-racing devotees.
    let groups = vec![
        (root, (0..5).map(ProcessId).collect::<Vec<_>>()),
        (sport, (5..17).map(ProcessId).collect()),
        (swiss, (17..29).map(ProcessId).collect()),
        (ski, (29..49).map(ProcessId).collect()),
    ];
    let params = TopicParams::paper_default().with_g(30.0).with_a(3.0);
    let net = DagNetwork::build(dag, groups, params, 11)?;

    // Memory check before running: a ski fan holds one topic table plus
    // TWO z-sized supertables (one per inclusion edge) — not one table per
    // topic in the DAG.
    let procs = net.into_processes();
    println!(
        "ski fan memory: {} entries (topic table {} + 2 edges × z {})",
        procs[30].memory_entries(),
        procs[30].topic_table().len(),
        procs[30].super_tables().total_entries(),
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

    assert_eq!(engine.counters().get("dag.parasite"), 0);
    println!("\nparasite deliveries: 0 — both edges respected, no leakage");
    Ok(())
}
