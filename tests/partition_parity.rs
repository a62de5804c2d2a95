//! Cross-substrate equivalence under **network partitions**: the same
//! protocol instances, cut in two by a `PartitionSchedule` and healed
//! mid-run, must deliver the same event set on the simulator and the
//! live runtime — for the cohort that never left the mainland.
//!
//! The partition severed-check is a pure function of the endpoints'
//! island membership and the send tick (it consumes no randomness), so one
//! seed severs the identical sends on both substrates. Mainland
//! processes — everyone outside the cut-off island — keep a saturated
//! gossip overlay throughout (the pinned-high knobs and the fully meshed
//! top groups make gossip effectively atomic despite 10% loss and the
//! severed cross-island fraction), so their delivered sets must be
//! byte-for-byte equal.
//! The channel's latency floor, swept 1–4 ticks, is the pool's
//! worker-drift window.
//! Island processes are excluded: whether the wave re-infects them
//! around a heal is timing-dependent, and the substrates' channel-draw
//! sequences legitimately differ.

use da_core::{ChannelConfig, Family, Kind, Latency, ProcessId, RunConfig};
use da_harness::experiments::live::{delivered_sets, partition_faults, pinned_params};
use da_harness::substrate::{Driver, Substrate};
use da_tape::{check_cases, prop_assert_eq};
use damulticast::{EventId, Network};

/// The smaller chain used by the parity property sweeps. Its top two
/// groups are full meshes under the pinned fanout, so a mainland member
/// misses an event only when all nine copies sent to it are lost (see
/// `runtime_parity.rs`).
const PROP_SIZES: [usize; 3] = [10, 10, 40];

/// Leaf-group members carved off onto the island.
const ISLAND: usize = 8;

/// Fixed horizon (no quiescence cut-off) so the tick-scripted cut and
/// heal land identically on both substrates.
const TICKS: u64 = 96;

/// One publication per level (all three publishers are mainland — the
/// island holds only the leaf group's last [`ISLAND`] members) over
/// `TICKS` fixed ticks on a 10%-loss channel of the given latency, with
/// one cut/heal cycle. Returns per-process delivered sets plus the
/// parasite count.
fn run_partitioned(
    substrate: Substrate,
    seed: u64,
    latency: u64,
    cut: u64,
    heal: u64,
) -> (Vec<Vec<EventId>>, u64) {
    let params = pinned_params(20.0, 12.0);
    let net = Network::linear(&PROP_SIZES, params, seed).expect("valid topology");
    let pubs: Vec<ProcessId> = net.groups().iter().map(|g| g.members[0]).collect();
    let leaf = &net.groups().last().expect("leaf group").members;
    let lossy = RunConfig::default().with_seed(seed).with_channel(
        ChannelConfig::reliable()
            .with_success_probability(0.9)
            .with_latency(Latency::Fixed(latency)),
    );
    let config = partition_faults(&lossy, &leaf[leaf.len() - ISLAND..], cut, Some(heal));
    let procs = net.into_processes();
    let mut driver = Driver::spawn(substrate, config, procs);
    for (level, pid) in pubs.into_iter().enumerate() {
        driver.apply(pid, move |p| p.publish(format!("event-{level}")));
    }
    driver.run_ticks(TICKS);
    let out = driver.finish();
    (
        delivered_sets(&out.processes),
        out.tally.total(Family::Da, Kind::Parasite),
    )
}

/// Satellite requirement: delivered-set parity across a partition
/// cut-and-heal cycle. The cut lands while the publication waves
/// are in flight and heals anywhere from mid-wave to long after;
/// whatever the cycle, the never-partitioned mainland cohort must
/// deliver byte-for-byte equal event sets on both substrates, with
/// zero parasites.
#[test]
fn partitioned_runtime_matches_simulator_for_mainland_cohort() {
    // Each case is two full multi-substrate runs; 8 cases cover the
    // workers × latency × cut/heal grid while keeping the suite fast.
    check_cases(
        "partitioned_runtime_matches_simulator_for_mainland_cohort",
        8,
        |t| {
            let seed = t.range(1u64..100_000);
            let workers = t.pick(&[2usize, 4]);
            let latency = t.range(1u64..=4);
            let cut = t.range(0u64..=2);
            let heal_delta = t.range(2u64..=24);
            let heal = cut + heal_delta;
            let (sim_sets, sim_parasites) =
                run_partitioned(Substrate::Sim, seed, latency, cut, heal);
            let (live_sets, live_parasites) =
                run_partitioned(Substrate::Live { workers }, seed, latency, cut, heal);

            prop_assert_eq!(sim_parasites, 0, "simulator saw a parasite");
            prop_assert_eq!(live_parasites, 0, "live runtime saw a parasite");
            prop_assert_eq!(sim_sets.len(), live_sets.len());
            let population: usize = PROP_SIZES.iter().sum();
            let mainland = population - ISLAND;
            for (pid, (sim, live)) in sim_sets.iter().zip(&live_sets).enumerate().take(mainland) {
                prop_assert_eq!(
                    sim,
                    live,
                    "mainland process {} delivered different event sets \
                 (workers={}, latency={}, cut={}, heal={})",
                    pid,
                    workers,
                    latency,
                    cut,
                    heal
                );
            }
            Ok(())
        },
    );
}
