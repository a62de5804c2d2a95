//! Split-brain and heal — **live**. A soak of the full dynamic stack
//! (bootstrap + membership + maintenance) running as actors on the
//! `da-runtime` worker pool while a first-class [`PartitionSchedule`]
//! cuts the network in two and later heals it: the fault the paper's
//! model rules out of scope for safety but that any deployed gossip
//! overlay must survive.
//!
//! Three-level linear hierarchy, every table discovered at runtime; the
//! tail quarter of the leaf group is an island that a partition severs
//! from everyone else from tick 20 to tick 45. Four stories probe the
//! cycle: one before the cut (blankets everyone), one per side during
//! the split (each stays on its side — zero cross-island deliveries of
//! the mainland's story on the island and vice versa, because the
//! severed check drops cross sends at source), and one from the island
//! after the heal, which must blanket the whole leaf group again: the
//! overlay re-merges because view entries outlive the cut (eviction age
//! exceeds its length) and maintenance re-finds super contacts.
//!
//! Run with: `cargo run --release --example live_partition`
//! (pass `--small` for a CI-sized population).
//!
//! Asserted: zero parasite deliveries through cut and heal, severed
//! sends actually accounted (`rt.dropped_partitioned > 0`), and exact
//! envelope accounting — every envelope ends in exactly one bucket.
//!
//! Set `DA_TRACE_OUT=<path>` to run with the flight recorder in full
//! capture mode and write the JSONL event stream there (CI uploads it
//! as a workflow artifact from the smoke run).

use da_core::{Partition, PartitionSchedule, ProcessId};
use da_runtime::{Runtime, RuntimeConfig, TraceConfig};
use damulticast::{DynamicNetwork, ParamMap, TopicParams};
use std::path::PathBuf;
use std::time::Instant;

/// The cut opens at this tick…
const CUT_AT: u64 = 20;
/// …and heals at this one.
const HEAL_AT: u64 = 45;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = std::env::args().any(|a| a == "--small");
    let sizes: &[usize] = if small { &[4, 20, 60] } else { &[10, 100, 900] };
    let population: usize = sizes.iter().sum();
    let seed = 7u64;

    // Aggressive maintenance (period 5, 2-tick ping timeout) so the
    // island re-finds its super contacts within a few ticks of the
    // heal, plus pinned-high dissemination knobs for redundancy.
    let params = ParamMap::uniform(TopicParams {
        maintenance_period: 5,
        ping_timeout: 2,
        g: 15.0,
        a: 3.0,
        ..TopicParams::paper_default()
    });
    let net = DynamicNetwork::linear(sizes, params, seed)?;
    let leaves = net.groups().last().expect("three levels").members.clone();
    let island: Vec<ProcessId> = leaves[leaves.len() - leaves.len() / 4..].to_vec();
    let mainland_leaves: Vec<ProcessId> = leaves[..leaves.len() - island.len()].to_vec();

    let partitions = PartitionSchedule::none()
        .with_partition(Partition::cut(island.iter().copied(), CUT_AT).heal_at(HEAL_AT));

    let workers = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .max(4);
    // Opt-in flight recorder: full capture when DA_TRACE_OUT names a
    // JSONL destination, off (the zero-cost default) otherwise.
    let trace_out: Option<PathBuf> = std::env::var_os("DA_TRACE_OUT").map(PathBuf::from);
    let trace = if trace_out.is_some() {
        TraceConfig::full()
    } else {
        TraceConfig::off()
    };
    let config = RuntimeConfig::default()
        .with_seed(seed)
        .with_workers(workers)
        .with_partitions(partitions)
        .with_trace(trace);
    let start = Instant::now();
    let mut rt = Runtime::spawn(config, net.into_processes());
    println!(
        "partition soak: {population} dynamic processes on {} workers, \
         {} leaf processes cut off from tick {CUT_AT} to {HEAL_AT}",
        rt.workers(),
        island.len()
    );

    // Let bootstrap + membership settle, then probe each phase of the
    // cut/heal cycle with one story.
    rt.run_ticks(10);
    let pre_cut = rt.with_process_mut(mainland_leaves[0], |p| p.publish("before the cut"));
    rt.run_ticks(20); // ticks 10..30: the cut opens at 20
    let cut_mainland = rt.with_process_mut(mainland_leaves[1], |p| p.publish("mainland, split"));
    let cut_island = rt.with_process_mut(island[0], |p| p.publish("island, split"));
    rt.run_ticks(25); // ticks 30..55: the heal lands at 45
    let post_heal = rt.with_process_mut(island[1], |p| p.publish("island, re-merged"));
    rt.run_ticks(45); // ticks 55..100
    let out = rt.shutdown();
    let elapsed = start.elapsed();

    let ratio_among = |cohort: &[ProcessId], id| {
        let got = cohort
            .iter()
            .filter(|&&p| out.processes[p.index()].has_delivered(id))
            .count();
        got as f64 / cohort.len().max(1) as f64
    };
    let stories = [
        ("before cut, mainland", pre_cut),
        ("during cut, mainland", cut_mainland),
        ("during cut, island", cut_island),
        ("after heal, island", post_heal),
    ];
    println!("\ndelivery per story (mainland leaves / island leaves):");
    for (label, id) in stories {
        println!(
            "  {label:<22} {:.3} / {:.3}",
            ratio_among(&mainland_leaves, id),
            ratio_among(&island, id)
        );
    }

    // The cycle's phases, asserted: the pre-cut story blankets both
    // sides; the split stories stay on their side (the severed check
    // drops every cross send at source, and infect-and-die gossip does
    // not retry after the heal); the post-heal story blankets both
    // sides again — the overlay re-merged.
    assert!(ratio_among(&leaves, pre_cut) > 0.9, "pre-cut blanket");
    assert!(
        ratio_among(&mainland_leaves, cut_mainland) > 0.9,
        "mainland side keeps working under the cut"
    );
    assert!(
        ratio_among(&island, cut_mainland) < 0.1,
        "the mainland's split story must not reach the island"
    );
    assert!(
        ratio_among(&mainland_leaves, cut_island) < 0.1,
        "the island's split story must not reach the mainland"
    );
    assert!(
        ratio_among(&leaves, post_heal) > 0.9,
        "post-heal story must blanket the re-merged overlay"
    );

    // Exact envelope accounting with the partition bucket in the
    // ledger, and the paper's invariant through cut and heal.
    let sent = out.counters.get("rt.sent");
    let delivered = out.counters.get("rt.delivered");
    let dropped_partitioned = out.counters.get("rt.dropped_partitioned");
    let accounted = delivered
        + out.counters.get("rt.dropped_channel")
        + dropped_partitioned
        + out.counters.get("rt.dropped_crashed")
        + out.counters.get("rt.dropped_shutdown")
        + out.counters.get("rt.dropped_closed");
    assert_eq!(accounted, sent, "every envelope in exactly one bucket");
    assert!(dropped_partitioned > 0, "the cut severed no send");
    assert_eq!(out.counters.get("da.parasite"), 0, "parasite delivery");

    println!(
        "\ntransport: {sent} sent = {delivered} delivered + {dropped_partitioned} severed \
         by the partition + other buckets"
    );
    println!(
        "{:.1} ms wall clock, {:.0} msg/s",
        elapsed.as_secs_f64() * 1e3,
        sent as f64 / elapsed.as_secs_f64()
    );
    println!("parasite deliveries: 0 — the invariant holds through split-brain and heal, live");

    if let Some(path) = trace_out {
        let log = out.trace.as_ref().expect("tracing was enabled");
        log.write_jsonl(&path)?;
        println!(
            "flight recorder: {} events ({} beyond capacity) -> {}",
            log.events.len(),
            log.dropped_events,
            path.display()
        );
    }
    Ok(())
}
