//! Model-checker counterexamples committed as regression tests.
//!
//! Every counterexample the bounded checker (`da_simnet::mc`) finds is
//! an ordinary scripted `FaultConfig` — drops by `(tick, edge,
//! occurrence)`, crashes by `(round, pid)` — so it replays with zero
//! randomness on **both substrates**. This suite commits two kinds of
//! artifact:
//!
//! * hand-pinned scripted configs (the "committed counterexamples"):
//!   deterministic replays that must keep producing the violation the
//!   checker once diagnosed, on the simulator and the live runtime
//!   alike;
//! * freshly-explored counterexamples: the checker re-finds the
//!   violation today, and its `to_fault_config` replay reproduces it
//!   on both substrates — proving the whole find → script → replay
//!   pipeline, including the live router's per-tick occurrence
//!   tracking for scripted drops.
//!
//! The mutation tests double as the checker's own soundness check: the
//! shipped protocol verifies exhaustively at bounds where the
//! `Mutation::SkipDedup` variant is caught.

use da_core::{ChannelConfig, FailureModel, Fate, FaultConfig, Latency, ProcessId};
use da_harness::experiments::mc::{
    base_config, published_event, single_group, single_group_processes, verify_dissemination,
    FullDelivery, NoDuplicateDelivery, NoParasite,
};
use da_harness::substrate::{Driver, Substrate};
use da_simnet::mc::{Explorer, Invariant, McConfig, OrderingMode};
use damulticast::{DaProcess, Mutation};

/// Horizon for every replay: past quiescence of all committed branches.
const REPLAY_TICKS: u64 = 8;

fn duplicate_delivery(p: &DaProcess) -> bool {
    let mut ids = p.delivered().to_vec();
    let total = ids.len();
    ids.sort_unstable_by_key(|id| (id.publisher.0, id.sequence));
    ids.dedup();
    ids.len() != total
}

/// The two substrates every counterexample replays on.
const SUBSTRATES: [Substrate; 2] = [Substrate::Sim, Substrate::Live { workers: 2 }];

/// Replays `faults` over the single-group scenario (the explorer's
/// population and seed, process 0 publishing before tick 0) on
/// `substrate` and returns the end-state processes.
fn replay(substrate: Substrate, faults: &FaultConfig, mutation: Mutation) -> Vec<DaProcess> {
    let procs = single_group_processes(3, mutation);
    let config = base_config().with_faults(faults.clone());
    let mut driver = Driver::spawn(substrate, config, procs);
    driver.apply(ProcessId(0), |p| {
        p.publish("mc-probe");
    });
    driver.run_ticks(REPLAY_TICKS);
    driver.finish().processes
}

/// The committed crash counterexample: killing the publisher at round
/// 0 — before its start hook disseminates the pending publication —
/// strands the event forever. Diagnosed by the checker's crash-point
/// exploration against the full-delivery invariant; pinned here as a
/// plain scripted config.
fn committed_crash_faults() -> FaultConfig {
    FaultConfig {
        network: ChannelConfig::reliable()
            .with_latency(Latency::Fixed(1))
            .into(),
        failure: FailureModel::Schedule(vec![Fate {
            round: 0,
            pid: ProcessId(0),
            crash: true,
        }]),
    }
}

#[test]
fn committed_crash_counterexample_replays_on_both_substrates() {
    let faults = committed_crash_faults();
    let id = published_event();
    for substrate in SUBSTRATES {
        let procs = replay(substrate, &faults, Mutation::None);
        assert!(
            procs.iter().all(|p| !p.has_delivered(id)),
            "{substrate:?}: the publisher died before disseminating; nobody may deliver"
        );
        // The violated property is full delivery — safety must hold.
        let safe = |p: &DaProcess| p.parasite_count() == 0 && !duplicate_delivery(p);
        assert!(procs.iter().all(safe), "{substrate:?}");
    }
}

/// The checker still finds the committed crash shape today, and its
/// scripted replay reproduces on both substrates.
#[test]
fn explored_crash_counterexample_replays_on_both_substrates() {
    let report = Explorer::new(McConfig {
        max_rounds: 6,
        crash_budget: 1,
        ordering: OrderingMode::Fixed,
        ..McConfig::default()
    })
    .with_invariant(FullDelivery)
    .explore(&base_config(), single_group(3, Mutation::None));
    let ce = report
        .violation
        .expect("one crash point must break full delivery");
    assert_eq!(ce.invariant, "full-delivery");
    assert_eq!(ce.fates.len(), 1, "a single injected fate: {ce:?}");
    assert!(ce.fates[0].crash);
    assert!(ce.drops.is_empty());
    assert!(ce.fifo_replayable, "crashes do not depend on ordering");

    let faults = ce.to_fault_config(&base_config().faults);
    let crashed = ce.fates[0].pid;
    let id = published_event();
    for substrate in SUBSTRATES {
        let procs = replay(substrate, &faults, Mutation::None);
        assert!(
            !procs[crashed.index()].has_delivered(id),
            "{substrate:?}: the crashed process must miss the publication"
        );
    }
}

/// The checker's drop exploration severs a process, and the scripted
/// drops replay draw-free on both substrates — including the live
/// router's per-tick occurrence tracking.
#[test]
fn explored_drop_counterexample_replays_on_both_substrates() {
    let report = Explorer::new(McConfig {
        max_rounds: 8,
        drop_budget: 3,
        ordering: OrderingMode::Fixed,
        ..McConfig::default()
    })
    .with_invariant(FullDelivery)
    .explore(&base_config(), single_group(3, Mutation::None));
    let ce = report
        .violation
        .expect("three drops can sever one process of three");
    assert_eq!(ce.invariant, "full-delivery");
    assert!(!ce.drops.is_empty());
    assert!(ce.fates.is_empty());
    assert!(ce.fifo_replayable, "drops replay as a scripted FaultConfig");

    let faults = ce.to_fault_config(&base_config().faults);
    let id = published_event();
    // The same processes miss out on both substrates: scripted drops
    // are deterministic down to the per-edge occurrence index.
    let [sim, live] = SUBSTRATES.map(|substrate| -> Vec<bool> {
        let procs = replay(substrate, &faults, Mutation::None);
        procs.iter().map(|p| !p.has_delivered(id)).collect()
    });
    assert!(
        sim.contains(&true),
        "the replay must reproduce the missed delivery"
    );
    assert_eq!(sim, live);
}

/// Satellite 4, cross-substrate: the shipped protocol verifies
/// exhaustively at bounds where the `SkipDedup` mutant yields a
/// counterexample, and the mutant's violation — a gossip echo needing
/// no injected faults at all — reproduces under the scripted replay on
/// both substrates.
#[test]
fn mutant_counterexample_replays_on_both_substrates() {
    let bounds = McConfig {
        max_rounds: 6,
        ordering: OrderingMode::Fixed,
        ..McConfig::default()
    };
    let clean = verify_dissemination(3, bounds, Mutation::None);
    assert!(
        clean.verified(),
        "shipped protocol must verify exhaustively at the mutant's bounds"
    );

    let mutant = verify_dissemination(3, bounds, Mutation::SkipDedup);
    let ce = mutant
        .violation
        .expect("the SkipDedup mutant must be caught within the depth bound");
    assert_eq!(ce.invariant, "no-duplicate-delivery");
    assert!(ce.fifo_replayable);
    assert!(
        ce.drops.is_empty() && ce.fates.is_empty(),
        "the echo needs no injected faults: {ce:?}"
    );
    assert!(!ce.trace.is_empty(), "the replay carries its trace stream");

    let faults = ce.to_fault_config(&base_config().faults);
    for substrate in SUBSTRATES {
        let procs = replay(substrate, &faults, Mutation::SkipDedup);
        assert!(
            procs.iter().any(duplicate_delivery),
            "{substrate:?}: the mutant's duplicate delivery must reproduce"
        );
    }
}

/// The invariants themselves accept a healthy fault-free run end to
/// end (guards against an invariant that fails vacuously and would
/// make every exploration "find" a bug).
#[test]
fn invariants_accept_a_clean_run() {
    let mut engine = single_group(3, Mutation::None)(base_config());
    engine.run_rounds(REPLAY_TICKS);
    assert!(NoParasite.check(&engine).is_ok());
    assert!(NoDuplicateDelivery.check(&engine).is_ok());
    assert!(FullDelivery.check_quiescent(&engine).is_ok());
}
