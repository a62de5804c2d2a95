//! Determinism across the whole stack (ARCHITECTURE.md, "Virtual time:
//! rounds vs ticks"; the wave golden is described under "One timing
//! structure"): identical seeds produce bit-identical metrics; different
//! seeds diverge.

use da_baselines::{build_broadcast_network, InterestMap};
use da_core::{ChannelConfig, FailureModel, ProcessId};
use da_membership::FanoutRule;
use da_simnet::{Engine, SimConfig};
use damulticast::{Network, TopicParams};

fn static_fingerprint(seed: u64) -> Vec<(String, u64)> {
    let net = Network::linear(&[5, 20, 60], TopicParams::default(), seed).unwrap();
    let groups = net.groups().to_vec();
    let sim = SimConfig::default()
        .with_seed(seed)
        .with_channel(ChannelConfig::paper_default())
        .with_failures(FailureModel::Stillborn {
            alive_fraction: 0.8,
        });
    let mut engine = Engine::new(sim, net.into_processes());
    if let Some(&p) = groups[2]
        .members
        .iter()
        .find(|&&p| engine.status(p).is_alive())
    {
        engine.process_mut(p).publish("det");
    }
    engine.run_until_quiescent(64);
    engine
        .counters()
        .iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect()
}

#[test]
fn static_stack_deterministic() {
    assert_eq!(static_fingerprint(77), static_fingerprint(77));
}

#[test]
fn static_stack_seed_sensitive() {
    assert_ne!(static_fingerprint(77), static_fingerprint(78));
}

fn dynamic_fingerprint(seed: u64) -> Vec<(String, u64)> {
    let net = Network::dynamic_linear(&[5, 25], TopicParams::default(), seed).unwrap();
    let mut engine = Engine::new(SimConfig::default().with_seed(seed), net.into_processes());
    engine.run_rounds(40);
    engine.process_mut(ProcessId(15)).publish("det");
    engine.run_rounds(20);
    engine
        .counters()
        .iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect()
}

#[test]
fn dynamic_stack_deterministic() {
    assert_eq!(dynamic_fingerprint(99), dynamic_fingerprint(99));
}

fn baseline_fingerprint(seed: u64) -> (u64, u64, u64, u64) {
    let interests = InterestMap::linear(&[4, 12, 36]);
    let procs =
        build_broadcast_network(&interests, 3.0, FanoutRule::LnPlusC { c: 5.0 }, seed).unwrap();
    let sim = SimConfig::default()
        .with_seed(seed)
        .with_channel(ChannelConfig::paper_default());
    let mut engine = Engine::new(sim, procs);
    engine.process_mut(ProcessId(0)).publish("det");
    engine.run_until_quiescent(64);
    (
        engine.counters().get("bc.sent"),
        engine.counters().get("bc.delivered"),
        engine.counters().get("bc.parasite"),
        // Aggregate counts can coincide across seeds (every process relays
        // exactly once when fully covered); channel-drop counts cannot.
        engine.ledger().dropped_channel,
    )
}

#[test]
fn baselines_deterministic() {
    assert_eq!(baseline_fingerprint(3), baseline_fingerprint(3));
    assert_ne!(baseline_fingerprint(3), baseline_fingerprint(4));
}

/// The harness trial runner is deterministic end to end despite running
/// trials on multiple threads.
#[test]
fn harness_sweeps_deterministic() {
    use da_core::FailureModel;
    use da_harness::runner::sweep;
    use da_harness::scenario::{run_scenario, ScenarioConfig};
    use da_harness::substrate::Substrate;

    let trial = |alive, seed| {
        let mut config = ScenarioConfig {
            group_sizes: vec![4, 16],
            publish_level: 1,
            ..ScenarioConfig::small()
        };
        config.faults.failure = FailureModel::Stillborn {
            alive_fraction: alive,
        };
        let out = run_scenario(&config, Substrate::Sim, seed);
        let scalars = vec![out.parasites, out.rounds, out.total_event_messages];
        [
            out.intra,
            out.inter_in,
            out.delivered_fraction,
            out.delivered_alive_fraction,
            scalars,
        ]
        .concat()
    };
    // Two levels: two intra counts, one boundary, two of each delivered
    // fraction and the three scalars.
    let columns = || (0..10).map(|m| format!("metric {m}")).collect();
    let xs = [0.5, 1.0];
    let run = || sweep("determinism", "alive", columns(), &xs, 6, 123, trial);
    let a = run();
    let b = run();
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.key, rb.key);
        for (ma, mb) in ra.values.iter().zip(&rb.values) {
            assert_eq!(
                ma.mean.to_bits(),
                mb.mean.to_bits(),
                "non-deterministic mean"
            );
            assert_eq!(ma.std_dev.to_bits(), mb.std_dev.to_bits());
        }
    }
}

/// One wave pinned end to end: 124 daMulticast processes, p = 0.85, 1–3
/// round latency, 12 rounds. The hash folds the capture-order trace
/// (which pins the within-round delivery order the canonical form sorts
/// away), the canonical trace and the engine's `state_digest` — every
/// RNG stream, every protocol table and the parked envelopes in delivery
/// order.
///
/// The constant was first computed on the `(round, seq)` heap the engine
/// has since swapped for `da_core::wheel`, and held through that swap,
/// the envelope's shrink and the table hasher's. It moved once, from
/// 1_761_301_161_039_168_673, when the gossip draw became a partial
/// Fisher–Yates: one draw per target kept, so the same stream picks
/// other members than a shuffled-and-cut table did. It moved again, from
/// 6_132_069_831_415_358_551, when the simulator's observer stream became
/// worker 0's: `state_digest` probes that stream, which this run never
/// draws from, and the trace half of the hash did not change. It moved
/// again, from 6_883_673_934_667_123_988, when the static tables became
/// partial Fisher–Yates draws too: every topic table and supertable of
/// the wave holds other members than a shuffled-and-cut group did. It
/// moved again, from 16_059_973_641_796_269_433, when an event came to
/// keep its payload's length instead of its bytes: a parked envelope's
/// digest hashes the length, and the trace half of the hash did not
/// change. It moved again, from 17_615_592_400_422_301_145, when a
/// process came to keep a count of its deliveries instead of their
/// ordered log: `McHash` writes the count, and the trace half of the hash
/// did not change.
#[test]
fn wave_trace_and_state_digest_match_the_partial_shuffle_golden() {
    use da_core::{FxHasher, Latency, TraceConfig};
    use std::hash::{Hash as _, Hasher as _};

    let net = Network::linear(&[4, 20, 100], TopicParams::default(), 15).unwrap();
    let publisher = net.groups()[2].members[7];
    let sim = SimConfig::default()
        .with_seed(15)
        .with_channel(
            ChannelConfig::paper_default().with_latency(Latency::UniformRounds { min: 1, max: 3 }),
        )
        .with_trace(TraceConfig::full());
    let mut engine = Engine::new(sim, net.into_processes());
    engine.process_mut(publisher).publish("golden");
    engine.run_rounds(12);

    let log = engine.trace_log().expect("tracing is on");
    assert_eq!(log.dropped_events, 0, "the full trace fits the recorder");
    assert!(engine.in_flight() > 0, "the digest covers parked envelopes");
    let mut h = FxHasher::default();
    log.events.hash(&mut h);
    log.canonical_events().hash(&mut h);
    h.write_u64(engine.state_digest());
    assert_eq!(h.finish(), 1_757_496_467_523_453_870);
}

/// One dynamic run pinned end to end, beside the wave golden above: a
/// `[5, 25]` `Network::dynamic_linear` population bootstraps and keeps
/// its tables for 40 rounds, then carries one publication for 20 more.
/// The hash folds the same three parts as the wave golden's: the
/// capture-order trace, the canonical trace and `state_digest`. It pins
/// the dynamic builder's draws (the same-group contacts and the overlay)
/// and every bootstrap and maintenance draw after them.
///
/// The constant was computed on the parent commit of the change that
/// merged the static and dynamic network builders into one `Network`,
/// with this test pasted into a copy of that tree, and that change held
/// it.
#[test]
fn dynamic_trace_and_state_digest_match_their_golden() {
    use da_core::{FxHasher, TraceConfig};
    use std::hash::{Hash as _, Hasher as _};

    let net = Network::dynamic_linear(&[5, 25], TopicParams::default(), 99).unwrap();
    let sim = SimConfig::default()
        .with_seed(99)
        .with_trace(TraceConfig::full());
    let mut engine = Engine::new(sim, net.into_processes());
    engine.run_rounds(40);
    engine.process_mut(ProcessId(15)).publish("golden");
    engine.run_rounds(20);

    let log = engine.trace_log().expect("tracing is on");
    assert_eq!(log.dropped_events, 0, "the full trace fits the recorder");
    let mut h = FxHasher::default();
    log.events.hash(&mut h);
    log.canonical_events().hash(&mut h);
    h.write_u64(engine.state_digest());
    assert_eq!(h.finish(), 12_930_307_807_050_593_194);
}
