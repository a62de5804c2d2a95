//! Cross-substrate equivalence under **network partitions**: the same
//! protocol instances, cut in two by a `PartitionSchedule` and healed
//! mid-run, must deliver the same event set on the simulator and the
//! live runtime — for the cohort that never left the mainland.
//!
//! The partition severed-check is a pure function of the endpoints'
//! node placement and the send tick (it consumes no randomness), so one
//! seed severs the identical sends on both substrates. Mainland
//! processes — everyone outside the cut-off island — keep a saturated
//! gossip overlay throughout (the pinned-high knobs make gossip
//! effectively atomic despite 10% loss and the severed cross-island
//! fraction), so their delivered sets must be byte-for-byte equal.
//! Island processes are excluded: whether the wave re-infects them
//! around a heal is timing-dependent, and the substrates' channel-draw
//! sequences legitimately differ.

use da_core::{
    ChannelConfig, FaultConfig, Latency, NodeId, Partition, PartitionSchedule, ProcessId, Topology,
};
use da_runtime::{Runtime, RuntimeConfig};
use da_simnet::{Engine, SimConfig};
use damulticast::{DaProcess, EventId, ParamMap, StaticNetwork, TopicParams};
use proptest::prelude::*;

/// The smaller paper chain used by the parity property sweeps.
const PROP_SIZES: [usize; 3] = [4, 10, 40];

/// Leaf-group members carved off onto the island node.
const ISLAND: usize = 8;

/// Fixed horizon (no quiescence cut-off) so the tick-scripted cut and
/// heal land identically on both substrates.
const TICKS: u64 = 96;

fn pinned_params() -> ParamMap {
    ParamMap::uniform(
        TopicParams::paper_default()
            .with_g(20.0)
            .with_a(3.0)
            .with_fanout(da_membership::FanoutRule::LnPlusC { c: 12.0 }),
    )
}

/// The two-node fault config: the last [`ISLAND`] leaf members on node
/// `"island"`, a 10%-loss two-tick channel, and one cut/heal cycle.
fn partition_faults(net: &StaticNetwork, cut: u64, heal: u64) -> FaultConfig {
    let leaf = net.groups().last().expect("leaf group");
    let mut topology = Topology::with_nodes(["mainland", "island"]);
    for &pid in &leaf.members[leaf.members.len() - ISLAND..] {
        topology = topology.with_placement(pid, NodeId(1));
    }
    FaultConfig::new()
        .with_channel(
            ChannelConfig::reliable()
                .with_success_probability(0.9)
                .with_latency(Latency::Fixed(2)),
        )
        .with_topology(topology)
        .with_partitions(PartitionSchedule::none().with_partition(
            Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], cut).heal_at(heal),
        ))
}

/// Sorted delivered-event ids per process — the comparison key.
fn delivered_sets(procs: &[DaProcess]) -> Vec<Vec<EventId>> {
    procs
        .iter()
        .map(|p| {
            let mut ids: Vec<EventId> = p.delivered().iter().map(|e| e.id()).collect();
            ids.sort();
            ids
        })
        .collect()
}

/// One publication per level (all three publishers are mainland — the
/// island holds only the leaf group's tail) over `TICKS` fixed ticks
/// with one cut/heal cycle. Returns per-process delivered sets plus the
/// parasite count.
fn run_partitioned(
    seed: u64,
    cut: u64,
    heal: u64,
    live: Option<RuntimeConfig>,
) -> (Vec<Vec<EventId>>, u64) {
    let net = StaticNetwork::linear(&PROP_SIZES, pinned_params(), seed).expect("valid topology");
    let pubs: Vec<ProcessId> = net.groups().iter().map(|g| g.members[0]).collect();
    let faults = partition_faults(&net, cut, heal);
    match live {
        Some(config) => {
            let mut rt = Runtime::spawn(
                config.with_seed(seed).with_faults(faults),
                net.into_processes(),
            );
            for (level, pid) in pubs.into_iter().enumerate() {
                rt.with_process_mut(pid, move |p| p.publish(format!("event-{level}")));
            }
            rt.run_ticks(TICKS);
            let out = rt.shutdown();
            (
                delivered_sets(&out.processes),
                out.counters.get("da.parasite"),
            )
        }
        None => {
            let config = SimConfig::default().with_seed(seed).with_faults(faults);
            let mut engine: Engine<DaProcess> = Engine::new(config, net.into_processes());
            for (level, pid) in pubs.into_iter().enumerate() {
                engine.process_mut(pid).publish(format!("event-{level}"));
            }
            engine.run_rounds(TICKS);
            let parasites = engine.counters().get("da.parasite");
            (delivered_sets(&engine.into_processes()), parasites)
        }
    }
}

proptest! {
    // Each case is two full multi-substrate runs; 8 cases cover the
    // workers × max_lag × cut/heal grid while keeping the suite fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite requirement: delivered-set parity across a partition
    /// cut-and-heal cycle. The cut lands while the publication waves
    /// are in flight and heals anywhere from mid-wave to long after;
    /// whatever the cycle, the never-partitioned mainland cohort must
    /// deliver byte-for-byte equal event sets on both substrates, with
    /// zero parasites.
    #[test]
    fn partitioned_runtime_matches_simulator_for_mainland_cohort(
        seed in 1u64..100_000,
        workers in prop_oneof![Just(2usize), Just(4)],
        max_lag in prop_oneof![Just(1u64), Just(4)],
        cut in 0u64..=2,
        heal_delta in 2u64..=24,
    ) {
        let heal = cut + heal_delta;
        let (sim_sets, sim_parasites) = run_partitioned(seed, cut, heal, None);
        let live_config = RuntimeConfig::default()
            .with_workers(workers)
            .with_max_lag(max_lag);
        let (live_sets, live_parasites) =
            run_partitioned(seed, cut, heal, Some(live_config));

        prop_assert_eq!(sim_parasites, 0, "simulator saw a parasite");
        prop_assert_eq!(live_parasites, 0, "live runtime saw a parasite");
        prop_assert_eq!(sim_sets.len(), live_sets.len());
        let population: usize = PROP_SIZES.iter().sum();
        let mainland = population - ISLAND;
        for (pid, (sim, live)) in sim_sets.iter().zip(&live_sets).enumerate().take(mainland) {
            prop_assert_eq!(
                sim, live,
                "mainland process {} delivered different event sets \
                 (workers={}, max_lag={}, cut={}, heal={})",
                pid, workers, max_lag, cut, heal
            );
        }
    }
}
