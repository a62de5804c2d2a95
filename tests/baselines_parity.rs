//! Cross-algorithm parity: the four algorithms on one topology must agree
//! on *who should receive* an event, and differ exactly where the paper
//! says they differ (parasites, memory, message count).

use da_baselines::{
    build_broadcast_network, build_hierarchical_network, build_multicast_network, GossipProcess,
    InterestMap,
};
use da_core::{first_divergence, Family, Kind, ProcessId, RunConfig, TraceConfig};
use da_harness::substrate::{Driver, Substrate};
use da_membership::FanoutRule;
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

const SIZES: [usize; 3] = [4, 12, 36];
const FANOUT: FanoutRule = FanoutRule::LnPlusC { c: 5.0 };

/// Draws a baseline's population over an interest map, by seed.
type Build = fn(&InterestMap, u64) -> Vec<GossipProcess>;

/// The three baselines on one interest map: counter family and builder.
const BASELINES: [(Family, Build); 3] = [
    (Family::Broadcast, |interests, seed| {
        build_broadcast_network(interests, 3.0, FANOUT, seed).unwrap()
    }),
    (Family::Multicast, |interests, seed| {
        build_multicast_network(interests, 3.0, FANOUT, seed).unwrap()
    }),
    (Family::Hierarchical, |interests, seed| {
        build_hierarchical_network(interests, 4, 3.0, FANOUT, FANOUT, seed).unwrap()
    }),
];

/// Deliveries per process index for a leaf publication, per algorithm.
fn delivery_bitmaps(seed: u64) -> [Vec<bool>; 4] {
    let n: usize = SIZES.iter().sum();
    let interests = InterestMap::linear(&SIZES);
    let leaf_publisher = ProcessId::from_index(n - 1);

    // daMulticast.
    let params = TopicParams::paper_default()
        .with_fanout(FANOUT)
        .with_g(12.0)
        .with_a(3.0);
    let net = Network::linear(&SIZES, params, seed).unwrap();
    let mut engine = Engine::new(SimConfig::default().with_seed(seed), net.into_processes());
    let id = engine.process_mut(leaf_publisher).publish("parity");
    engine.run_until_quiescent(96);
    let da: Vec<bool> = (0..n)
        .map(|i| engine.process(ProcessId::from_index(i)).has_delivered(id))
        .collect();

    let [bc, mc, hc] = BASELINES.map(|(_, build)| {
        let procs = build(&interests, seed);
        let mut engine = Engine::new(SimConfig::default().with_seed(seed), procs);
        let id = engine.process_mut(leaf_publisher).publish("parity");
        engine.run_until_quiescent(96);
        (0..n)
            .map(|i| engine.process(ProcessId::from_index(i)).has_delivered(id))
            .collect()
    });

    [da, bc, mc, hc]
}

/// A leaf event interests the whole population: on reliable channels all
/// four algorithms must blanket everyone.
#[test]
fn all_algorithms_cover_the_leaf_audience() {
    let [da, bc, mc, hc] = delivery_bitmaps(41);
    for (name, map) in [("da", &da), ("bc", &bc), ("mc", &mc), ("hc", &hc)] {
        let covered = map.iter().filter(|&&b| b).count();
        assert_eq!(covered, map.len(), "{name} left processes uncovered");
    }
}

/// A root event separates the algorithms: all deliver to the root
/// subscribers only, but broadcast/hierarchical *receive* it everywhere.
#[test]
fn root_event_parasite_profile() {
    let n: usize = SIZES.iter().sum();
    let interests = InterestMap::linear(&SIZES);
    let root_publisher = ProcessId(0);

    // Multicast gossips in the root group alone; the interest-oblivious
    // baselines hand everyone else a parasite.
    let parasites = [n - SIZES[0], 0, n - SIZES[0]];
    for ((family, build), parasites) in BASELINES.into_iter().zip(parasites) {
        let mut e = Engine::new(SimConfig::default().with_seed(42), build(&interests, 42));
        e.process_mut(root_publisher).publish("root");
        e.run_until_quiescent(96);
        let count = |kind| e.tally().total(family, kind);
        assert_eq!(
            count(Kind::Delivered),
            SIZES[0] as u64,
            "{family:?} delivers to subscribers only"
        );
        assert_eq!(count(Kind::Parasite) as usize, parasites, "{family:?}");
    }

    // daMulticast.
    let params = TopicParams::paper_default().with_fanout(FANOUT);
    let net = Network::linear(&SIZES, params, 42).unwrap();
    let mut e = Engine::new(SimConfig::default().with_seed(42), net.into_processes());
    e.process_mut(root_publisher).publish("root");
    e.run_until_quiescent(96);
    assert_eq!(e.tally().total(Family::Da, Kind::Parasite), 0);
    assert_eq!(
        e.tally().total(Family::Da, Kind::Delivered),
        SIZES[0] as u64
    );
}

/// Message-cost ordering for a root publication: interest-scoped
/// algorithms (daMulticast, multicast) cost a small fraction of the
/// interest-oblivious ones (broadcast, hierarchical).
#[test]
fn root_event_message_cost_ordering() {
    let interests = InterestMap::linear(&SIZES);
    let root_publisher = ProcessId(0);

    let params = TopicParams::paper_default().with_fanout(FANOUT);
    let net = Network::linear(&SIZES, params, 43).unwrap();
    let mut e = Engine::new(SimConfig::default().with_seed(43), net.into_processes());
    e.process_mut(root_publisher).publish("cost");
    e.run_until_quiescent(96);
    let total = |kind| e.tally().total(Family::Da, kind);
    let da_cost = total(Kind::Intra) + total(Kind::InterOut);

    let procs = build_broadcast_network(&interests, 3.0, FANOUT, 43).unwrap();
    let mut e = Engine::new(SimConfig::default().with_seed(43), procs);
    e.process_mut(root_publisher).publish("cost");
    e.run_until_quiescent(96);
    let bc_cost = e.tally().total(Family::Broadcast, Kind::Sent);

    assert!(
        da_cost * 4 < bc_cost,
        "daMulticast ({da_cost}) should cost a fraction of broadcast ({bc_cost})"
    );
}

/// Memory ordering across algorithms matches Sec. VI-E.2: daMulticast's
/// per-process tables stay below gossip multicast's sum and broadcast's
/// global table (for the leaf majority).
#[test]
fn memory_ordering() {
    let interests = InterestMap::linear(&SIZES);
    let n: usize = SIZES.iter().sum();

    let params = TopicParams::paper_default().with_fanout(FANOUT);
    let net = Network::linear(&SIZES, params, 44).unwrap();
    let da_procs = net.into_processes();
    let da_mean: f64 = da_procs
        .iter()
        .map(|p| p.memory_entries() as f64)
        .sum::<f64>()
        / da_procs.len() as f64;

    let bc_procs = build_broadcast_network(&interests, 3.0, FANOUT, 44).unwrap();
    let bc_mean: f64 = bc_procs
        .iter()
        .map(|p| p.memory_entries() as f64)
        .sum::<f64>()
        / bc_procs.len() as f64;

    let mc_procs = build_multicast_network(&interests, 3.0, FANOUT, 44).unwrap();
    let mc_mean: f64 = mc_procs
        .iter()
        .map(|p| p.memory_entries() as f64)
        .sum::<f64>()
        / mc_procs.len() as f64;

    assert!(
        da_mean < mc_mean,
        "daMulticast mean {da_mean} vs multicast {mc_mean}"
    );
    // The broadcast table covers all n processes; daMulticast's biggest
    // table covers only the leaf group.
    let _ = n;
    assert!(
        da_mean < bc_mean + 3.0,
        "daMulticast {da_mean} should not exceed broadcast {bc_mean} by more than z"
    );
}

/// One mid-level publication (wanted by levels 0 and 1 only, so the
/// bitmap is non-trivial) on the simulator and on live pools of 1 and 2
/// workers: the same per-process delivery bitmap and — reliable
/// channels, so no substrate-specific fate draws — a bit-identical
/// canonical trace.
fn assert_live_matches_sim(family: Family, procs: Vec<GossipProcess>) {
    const SEED: u64 = 45;
    let publisher = ProcessId::from_index(SIZES[0]);
    let run = |substrate: Substrate| {
        let procs = procs.clone();
        let config = RunConfig::default()
            .with_seed(SEED)
            .with_trace(TraceConfig::full());
        let mut driver = Driver::spawn(substrate, config, procs);
        let id = driver.apply(publisher, |p: &mut GossipProcess| p.publish("live"));
        driver.run_until_quiescent(96);
        let out = driver.finish();
        let bitmap: Vec<bool> = out.processes.iter().map(|p| p.has_delivered(id)).collect();
        (
            id,
            bitmap,
            out.trace.expect("tracing on").canonical_events(),
        )
    };

    let (id, sim_bitmap, sim_trace) = run(Substrate::Sim);
    let delivered = sim_bitmap.iter().filter(|&&b| b).count();
    assert_eq!(
        delivered,
        SIZES[0] + SIZES[1],
        "{family:?}: levels 0 and 1 deliver"
    );

    for workers in [1, 2] {
        let (live_id, live_bitmap, live_trace) = run(Substrate::Live { workers });
        assert_eq!(live_id, id);
        assert_eq!(live_bitmap, sim_bitmap, "{family:?}: {workers} workers");
        assert_eq!(
            first_divergence(&sim_trace, &live_trace),
            None,
            "{family:?}"
        );
    }
}

/// The baselines implement the one `ExecProtocol` contract, so they run
/// on the live runtime exactly as simulated.
#[test]
fn baselines_run_live_as_simulated() {
    let interests = InterestMap::linear(&SIZES);
    for (family, build) in BASELINES {
        assert_live_matches_sim(family, build(&interests, 45));
    }
}
