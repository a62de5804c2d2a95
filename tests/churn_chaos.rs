//! Chaos testing under continuous churn: the full dynamic protocol stack
//! survives processes crashing and recovering every round, keeps its
//! invariants, and still delivers.

use da_core::{FailureModel, ProcessId};
use da_runtime::{Runtime, RuntimeConfig};
use da_simnet::{Engine, SimConfig};
use damulticast::{DynamicNetwork, ParamMap, TopicParams};

fn churn_engine(
    crash: f64,
    recover: f64,
    seed: u64,
) -> (Engine<damulticast::DaProcess>, Vec<Vec<ProcessId>>) {
    let params = TopicParams {
        maintenance_period: 5,
        ping_timeout: 2,
        g: 15.0,
        a: 3.0,
        ..TopicParams::paper_default()
    };
    let net = DynamicNetwork::linear(&[8, 40], ParamMap::uniform(params), seed).unwrap();
    let members: Vec<Vec<ProcessId>> = net.groups().iter().map(|g| g.members.clone()).collect();
    let sim = SimConfig::default()
        .with_seed(seed)
        .with_failures(FailureModel::Churn {
            crash_probability: crash,
            recover_probability: recover,
        });
    (Engine::new(sim, net.into_processes()), members)
}

/// Gentle churn (1% crash, 3% recover → 75% stationary aliveness): the
/// stack keeps delivering the bulk of publications to surviving members.
#[test]
fn delivers_through_gentle_churn() {
    let (mut engine, members) = churn_engine(0.01, 0.03, 7);
    engine.run_rounds(60);
    let mut ids = Vec::new();
    for i in 0..6 {
        if let Some(&p) = members[1]
            .iter()
            .skip(i * 5)
            .find(|&&p| engine.status(p).is_alive())
        {
            ids.push(engine.process_mut(p).publish(format!("evt {i}")));
        }
        engine.run_rounds(8);
    }
    engine.run_rounds(30);

    assert!(!ids.is_empty());
    let alive_leaves: Vec<ProcessId> = members[1]
        .iter()
        .copied()
        .filter(|&p| engine.status(p).is_alive())
        .collect();
    assert!(!alive_leaves.is_empty());
    let mut total = 0.0;
    for &id in &ids {
        total += alive_leaves
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(id))
            .count() as f64
            / alive_leaves.len() as f64;
    }
    let mean = total / ids.len() as f64;
    assert!(mean > 0.5, "mean delivery among survivors {mean}");
}

/// Invariants survive brutal churn (10% crash / 10% recover): no parasite
/// deliveries, no duplicates, crashed processes silent.
#[test]
fn invariants_survive_brutal_churn() {
    let (mut engine, members) = churn_engine(0.1, 0.1, 11);
    engine.run_rounds(40);
    for i in 0..8 {
        if let Some(&p) = members[1]
            .iter()
            .skip(i * 3)
            .find(|&&p| engine.status(p).is_alive())
        {
            engine.process_mut(p).publish(format!("chaos {i}"));
        }
        engine.run_rounds(5);
    }
    engine.run_rounds(40);

    assert_eq!(engine.counters().get("da.parasite"), 0);
    for (pid, p) in engine.processes() {
        assert_eq!(p.parasite_count(), 0, "{pid} parasite");
        let (total, distinct) = (p.deliveries() as usize, p.delivered().len());
        assert_eq!(distinct, total, "{pid} duplicate delivery");
    }
    // The simulation saw genuine churn in both directions.
    assert!(engine.ledger().churn_crashes > 10);
    assert!(engine.ledger().churn_recoveries > 10);
}

/// Churn runs are deterministic end to end.
#[test]
fn churn_chaos_deterministic() {
    let fingerprint = |seed: u64| {
        let (mut engine, members) = churn_engine(0.05, 0.1, seed);
        engine.run_rounds(50);
        if let Some(&p) = members[1].iter().find(|&&p| engine.status(p).is_alive()) {
            engine.process_mut(p).publish("det");
        }
        engine.run_rounds(30);
        (engine.ledger(), engine.alive().len())
    };
    assert_eq!(fingerprint(3), fingerprint(3));
    assert_ne!(fingerprint(3), fingerprint(4));
}

/// The same chaos scenario on the **live runtime**: the full dynamic
/// stack (bootstrap + membership + maintenance) executes on the worker
/// pool while the shared failure plan crashes and recovers processes
/// mid-flight. Invariants must hold exactly as under the simulator —
/// zero parasites, no duplicate deliveries — and mid-flight crash
/// accounting must be exact: every envelope ends in exactly one of
/// delivered / `dropped_channel` / `dropped_crashed` /
/// `dropped_shutdown`.
#[test]
fn live_runtime_survives_churn_chaos() {
    let params = TopicParams {
        maintenance_period: 5,
        ping_timeout: 2,
        g: 15.0,
        a: 3.0,
        ..TopicParams::paper_default()
    };
    let failure = FailureModel::Churn {
        crash_probability: 0.02,
        recover_probability: 0.2,
    };
    let net = DynamicNetwork::linear(&[8, 40], ParamMap::uniform(params), 7).unwrap();
    let members: Vec<Vec<ProcessId>> = net.groups().iter().map(|g| g.members.clone()).collect();

    // Replay the plan's aliveness trajectory (the stateless draws the
    // runtime will make) so publishers can be picked alive at their
    // publish tick — the live analogue of checking `engine.status`.
    let plan = failure.materialize(48, 7);
    let alive_at = |pid: ProcessId, at_tick: u64| plan.alive_at(pid, at_tick);

    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_seed(7)
        .with_failures(failure);
    let mut rt = Runtime::spawn(config, net.into_processes());
    rt.run_ticks(40);
    let mut ids = Vec::new();
    let mut tick = 40;
    for i in 0..6 {
        if let Some(&p) = members[1].iter().skip(i * 5).find(|&&p| alive_at(p, tick)) {
            ids.push(rt.with_process_mut(p, move |proc| proc.publish(format!("live evt {i}"))));
        }
        rt.run_ticks(8);
        tick += 8;
    }
    rt.run_ticks(30);
    let out = rt.shutdown();

    // Invariants, live: no parasite ever, no double delivery.
    assert_eq!(out.counters.get("da.parasite"), 0);
    for (pid, p) in out.processes.iter().enumerate() {
        assert_eq!(p.parasite_count(), 0, "p{pid} parasite");
        let (total, distinct) = (p.deliveries() as usize, p.delivered().len());
        assert_eq!(distinct, total, "p{pid} duplicate delivery");
    }

    // The run saw genuine churn in both directions.
    assert!(out.ledger.churn_crashes > 10);
    assert!(out.ledger.churn_recoveries > 10);

    // Exact mid-flight crash accounting.
    assert_eq!(
        out.ledger.in_flight(),
        Some(0),
        "every envelope in exactly one bucket"
    );
    assert!(
        out.ledger.dropped_crashed > 0,
        "chaos must exercise the crashed-inbox drain"
    );

    // Delivery still works through the chaos: most publications blanket
    // the surviving leaves.
    assert!(!ids.is_empty());
    let alive_leaves: Vec<ProcessId> = members[1]
        .iter()
        .copied()
        .filter(|&p| out.statuses[p.index()].is_alive())
        .collect();
    assert!(!alive_leaves.is_empty());
    let mut total = 0.0;
    for &id in &ids {
        total += alive_leaves
            .iter()
            .filter(|&&p| out.processes[p.index()].has_delivered(id))
            .count() as f64
            / alive_leaves.len() as f64;
    }
    let mean = total / ids.len() as f64;
    assert!(mean > 0.5, "mean live delivery among survivors {mean}");
}

/// A process that crashes mid-dissemination and later recovers can still
/// receive *subsequent* events (its tables may be stale but maintenance
/// repairs them).
#[test]
fn recovered_processes_rejoin_the_flow() {
    let (mut engine, members) = churn_engine(0.02, 0.2, 13);
    engine.run_rounds(120); // long enough that most processes cycled
    assert!(
        engine.ledger().churn_recoveries > 20,
        "the scenario must actually exercise recovery"
    );
    // Publish after the churn history; recovered processes are part of
    // the audience.
    let publisher = members[1]
        .iter()
        .copied()
        .find(|&p| engine.status(p).is_alive())
        .expect("someone is alive at 90% stationary aliveness");
    let id = engine.process_mut(publisher).publish("after recovery");
    engine.run_rounds(30);
    let alive: Vec<ProcessId> = members[1]
        .iter()
        .copied()
        .filter(|&p| engine.status(p).is_alive())
        .collect();
    let got = alive
        .iter()
        .filter(|&&p| engine.process(p).has_delivered(id))
        .count();
    assert!(
        got * 2 > alive.len(),
        "majority of (partly recovered) survivors deliver: {got}/{}",
        alive.len()
    );
}
