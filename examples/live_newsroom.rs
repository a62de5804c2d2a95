//! The newsroom scenario — **live**. Same branching topic hierarchy as
//! `examples/newsroom.rs`, but the desks run as actors on the
//! `da-runtime` worker pool instead of inside the round simulator: over
//! a thousand threaded processes exchanging real messages, with the
//! exact same protocol code (the `ExecProtocol` impl of `DaProcess`).
//!
//! Topics (3 levels):
//!
//! ```text
//! .news                      10 chief editors
//! ├── .news.sport           100 sport editors
//! │   └── .news.sport.football  900 football fans
//! └── .news.politics        100 politics reporters
//! ```
//!
//! A football story must reach all 1,010 processes on the sport branch
//! (fans, sport editors, chiefs) and zero on the politics desk; a
//! politics story takes the other branch. The paper's invariant — zero
//! parasite deliveries — holds live exactly as it does simulated.
//!
//! Run with: `cargo run --release --example live_newsroom`
//! (pass `--small` for a CI-sized population).
//!
//! Pass `--loss <p>` to run the same stories over lossy live channels —
//! each message is dropped with probability `p` by the `FaultyRouter`
//! (the shared `da_core::channel` model). The example then reports the
//! achieved per-desk delivery ratios instead of asserting full
//! coverage; the zero-parasite invariant is asserted at every loss
//! rate, because no amount of channel noise may leak a story outside
//! its audience.

use da_core::{ChannelConfig, ProcessId};
use da_runtime::{Runtime, RuntimeConfig};
use da_topics::TopicHierarchy;
use damulticast::{GroupSpec, ParamMap, StaticNetwork, TopicParams};
use std::sync::Arc;
use std::time::Instant;

/// Parses `--loss <p>` (message loss probability, 0 ≤ p < 1) from the
/// argument list. Absent flag means perfect channels.
fn loss_from_args() -> f64 {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--loss" {
            let value = args
                .next()
                .expect("--loss needs a probability, e.g. --loss 0.15");
            let p: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("--loss {value}: not a number"));
            assert!((0.0..1.0).contains(&p), "--loss {p}: need 0 ≤ p < 1");
            return p;
        }
    }
    0.0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = std::env::args().any(|a| a == "--small");
    let loss = loss_from_args();
    // Desk sizes, top-down the sport branch then politics. Full scale
    // hosts 1,110 live processes; --small is a CI-sized smoke run.
    let [n_chiefs, n_sport, n_football, n_politics] = if small {
        [4, 20, 100, 20]
    } else {
        [10, 100, 900, 100]
    };

    let mut hierarchy = TopicHierarchy::new();
    let news = hierarchy.insert(".news")?;
    let sport = hierarchy.insert(".news.sport")?;
    let football = hierarchy.insert(".news.sport.football")?;
    let politics = hierarchy.insert(".news.politics")?;
    let hierarchy = Arc::new(hierarchy);

    let mut next = 0u32;
    let mut desk = |count: usize| -> Vec<ProcessId> {
        let members = (next..next + count as u32).map(ProcessId).collect();
        next += count as u32;
        members
    };
    let chiefs = desk(n_chiefs);
    let sport_editors = desk(n_sport);
    let football_fans = desk(n_football);
    let politics_desk = desk(n_politics);
    let population = n_chiefs + n_sport + n_football + n_politics;

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

    // Pin the trade-off knobs high (g, a for the inter-group hop, an
    // `ln S + 12` fanout for intra-group atomicity) so every story
    // reaches its full audience regardless of thread interleaving —
    // the live substrate is concurrent, the guarantee must not be lucky.
    let params = ParamMap::uniform(
        TopicParams::paper_default()
            .with_g(20.0)
            .with_a(3.0)
            .with_fanout(da_membership::FanoutRule::LnPlusC { c: 12.0 }),
    );
    let net = StaticNetwork::from_groups(Arc::clone(&hierarchy), groups, params, 7)?;

    // At least 4 workers even on small machines, so the run always
    // exercises true cross-thread message passing.
    let workers = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .max(4);
    let channel = ChannelConfig::reliable().with_success_probability(1.0 - loss);
    let start = Instant::now();
    let config = RuntimeConfig::default()
        .with_seed(7)
        .with_workers(workers)
        .with_channel(channel);
    let mut rt = Runtime::spawn(config, net.into_processes());
    println!(
        "newsroom live: {population} processes on {} workers, {:.0}% message loss",
        rt.workers(),
        loss * 100.0
    );

    // Reporters file their stories on live processes, between ticks.
    let goal = rt.with_process_mut(football_fans[0], |p| p.publish("goal in stoppage time"));
    let vote = rt.with_process_mut(politics_desk[0], |p| p.publish("parliament vote passes"));
    let ticks = rt.run_until_quiescent(128);
    let out = rt.shutdown();
    let elapsed = start.elapsed();

    let count = |members: &[ProcessId], id| {
        members
            .iter()
            .filter(|&&p| out.processes[p.index()].has_delivered(id))
            .count()
    };

    println!("\nfootball story ({goal}):");
    println!(
        "  football fans   {:>4}/{n_football}",
        count(&football_fans, goal)
    );
    println!(
        "  sport editors   {:>4}/{n_sport}",
        count(&sport_editors, goal)
    );
    println!("  chief editors   {:>4}/{n_chiefs}", count(&chiefs, goal));
    println!(
        "  politics desk   {:>4}/{n_politics}  (must be 0)",
        count(&politics_desk, goal)
    );

    println!("\npolitics story ({vote}):");
    println!(
        "  politics desk   {:>4}/{n_politics}",
        count(&politics_desk, vote)
    );
    println!("  chief editors   {:>4}/{n_chiefs}", count(&chiefs, vote));
    println!(
        "  football fans   {:>4}/{n_football}  (must be 0)",
        count(&football_fans, vote)
    );

    // The achieved delivery ratio across both stories' full audiences.
    let goal_audience = n_football + n_sport + n_chiefs;
    let vote_audience = n_politics + n_chiefs;
    let delivered = count(&football_fans, goal)
        + count(&sport_editors, goal)
        + count(&chiefs, goal)
        + count(&politics_desk, vote)
        + count(&chiefs, vote);
    let ratio = delivered as f64 / (goal_audience + vote_audience) as f64;

    // Nothing outside the audience, zero parasites — at any loss rate.
    assert_eq!(count(&politics_desk, goal), 0, "politics saw sport");
    assert_eq!(count(&football_fans, vote), 0, "fans saw politics");
    assert_eq!(count(&sport_editors, vote), 0, "sport saw politics");
    assert_eq!(out.counters.get("da.parasite"), 0);
    if loss == 0.0 {
        // Perfect channels additionally guarantee the full audience.
        assert_eq!(count(&football_fans, goal), n_football);
        assert_eq!(count(&sport_editors, goal), n_sport);
        assert_eq!(count(&chiefs, goal), n_chiefs);
        assert_eq!(count(&politics_desk, vote), n_politics);
        assert_eq!(count(&chiefs, vote), n_chiefs);
    }

    let sent = out.counters.get("rt.sent");
    let bytes = out.counters.get("rt.bytes_sent");
    let dropped = out.counters.get("rt.dropped_channel");
    println!(
        "\nquiescent after {ticks} ticks, {:.1} ms wall clock",
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "transport: {sent} messages, {bytes} bytes, {:.0} msg/s, {dropped} lost to the channel",
        sent as f64 / elapsed.as_secs_f64()
    );
    println!(
        "achieved delivery ratio: {:.4} at {:.0}% loss",
        ratio,
        loss * 100.0
    );
    println!("parasite deliveries: 0 — branches are perfectly isolated, live");
    Ok(())
}
