//! A newsroom scenario over a *branching* topic hierarchy — the workload
//! the paper's introduction motivates (NNTP-style newsgroups without the
//! central server).
//!
//! Topics:
//!
//! ```text
//! .news
//! ├── .news.sport
//! │   └── .news.sport.football
//! └── .news.politics
//! ```
//!
//! Editors subscribe high in the tree (they want everything below);
//! beat reporters publish deep. The example shows that
//!
//! * a football event reaches football fans, sport editors, and
//!   chief editors — but never the politics desk, and
//! * a politics event takes the other branch, untouched by sport.
//!
//! Run with: `cargo run --example newsroom`

use da_core::ProcessId;
use da_simnet::{Engine, SimConfig};
use da_topics::TopicHierarchy;
use damulticast::{GroupSpec, ParamMap, StaticNetwork, TopicParams};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut hierarchy = TopicHierarchy::new();
    let news = hierarchy.insert(".news")?;
    let sport = hierarchy.insert(".news.sport")?;
    let football = hierarchy.insert(".news.sport.football")?;
    let politics = hierarchy.insert(".news.politics")?;
    let hierarchy = Arc::new(hierarchy);

    // Desk sizes: 4 chief editors, 6 sport editors, 30 football fans,
    // 10 politics reporters. (The root "." group is empty — subscribers
    // of .news bridge straight past it, and nothing is published there.)
    let mut next = 0u32;
    let mut desk = |count: u32| -> Vec<ProcessId> {
        let members = (next..next + count).map(ProcessId).collect();
        next += count;
        members
    };
    let chiefs = desk(4);
    let sport_editors = desk(6);
    let football_fans = desk(30);
    let politics_desk = desk(10);

    let groups = vec![
        GroupSpec {
            topic: news,
            members: chiefs.clone(),
        },
        GroupSpec {
            topic: sport,
            members: sport_editors.clone(),
        },
        GroupSpec {
            topic: football,
            members: football_fans.clone(),
        },
        GroupSpec {
            topic: politics,
            members: politics_desk.clone(),
        },
    ];

    // Small groups: boost the election weight so single events cross
    // group boundaries reliably (the paper's g knob).
    let params = ParamMap::uniform(TopicParams::paper_default().with_g(10.0).with_a(3.0));
    let net = StaticNetwork::from_groups(Arc::clone(&hierarchy), groups, params, 7)?;
    let mut engine = Engine::new(SimConfig::default().with_seed(7), net.into_processes());

    // A football reporter files a story; a politics reporter files another.
    let goal = engine
        .process_mut(football_fans[0])
        .publish("goal in stoppage time");
    let vote = engine
        .process_mut(politics_desk[0])
        .publish("parliament vote passes");
    engine.run_until_quiescent(64);

    let count = |members: &[ProcessId], id| {
        members
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(id))
            .count()
    };

    println!("football story ({goal}):");
    println!("  football fans   {:>2}/30", count(&football_fans, goal));
    println!("  sport editors   {:>2}/6", count(&sport_editors, goal));
    println!("  chief editors   {:>2}/4", count(&chiefs, goal));
    println!(
        "  politics desk   {:>2}/10  (must be 0)",
        count(&politics_desk, goal)
    );
    assert_eq!(
        count(&politics_desk, goal),
        0,
        "politics desk must not see sport"
    );

    println!("\npolitics story ({vote}):");
    println!("  politics desk   {:>2}/10", count(&politics_desk, vote));
    println!("  chief editors   {:>2}/4", count(&chiefs, vote));
    println!(
        "  football fans   {:>2}/30  (must be 0)",
        count(&football_fans, vote)
    );
    println!(
        "  sport editors   {:>2}/6   (must be 0)",
        count(&sport_editors, vote)
    );
    assert_eq!(count(&football_fans, vote), 0);
    assert_eq!(count(&sport_editors, vote), 0);

    assert_eq!(
        engine.counters().get("da.parasite"),
        0,
        "no desk ever receives a story it did not subscribe to"
    );
    println!("\nparasite deliveries: 0 — branches are perfectly isolated");
    Ok(())
}
