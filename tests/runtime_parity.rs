//! Cross-substrate equivalence: the *same* protocol instances, built by
//! the same `StaticNetwork`, must deliver the same event set whether
//! driven by the deterministic round simulator (`da-simnet`) or the
//! multi-threaded live runtime (`da-runtime`).
//!
//! The live substrate is concurrent, so per-message traces differ
//! run-to-run; what must coincide is the *outcome*: every published
//! event reaches its full audience (each subscriber of the topic or a
//! supertopic), nobody outside the audience ever sees it, and no
//! parasite message is counted. As in `e2e_dissemination.rs`, the
//! trade-off knobs are pinned high (`g = 20`, `a = z`, `ln S + 12`
//! fanout) so full coverage is not at the mercy of one seed or one
//! thread interleaving (miss probability ≈ e^{-12} per event).

use da_core::{ChannelConfig, FailureModel, Latency, ProcessId, TraceConfig, TraceLog};
use da_harness::experiments::trace::describe_divergence;
use da_runtime::{Runtime, RuntimeConfig};
use da_simnet::{Engine, SimConfig};
use damulticast::{DaProcess, EventId, ParamMap, StaticNetwork, TopicParams};
use proptest::prelude::*;

/// The paper's Sec. VII-A topology with pinned-high trade-off knobs.
const SIZES: [usize; 3] = [10, 100, 1000];

fn pinned_params() -> ParamMap {
    ParamMap::uniform(
        TopicParams::paper_default()
            .with_g(20.0)
            .with_a(3.0)
            .with_fanout(da_membership::FanoutRule::LnPlusC { c: 12.0 }),
    )
}

fn build_network(seed: u64) -> StaticNetwork {
    StaticNetwork::linear(&SIZES, pinned_params(), seed).expect("paper topology is valid")
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

/// Publishers: the first member of each level (leaf, mid, root events).
fn publishers(net: &StaticNetwork) -> Vec<ProcessId> {
    net.groups().iter().map(|g| g.members[0]).collect()
}

/// Runs the topology under the simulator, publishing one event per
/// level. Returns per-process delivered sets plus the parasite count.
fn run_sim(seed: u64) -> (Vec<Vec<EventId>>, u64) {
    let net = build_network(seed);
    let pubs = publishers(&net);
    let mut engine = Engine::new(SimConfig::default().with_seed(seed), net.into_processes());
    for (level, pid) in pubs.into_iter().enumerate() {
        engine.process_mut(pid).publish(format!("event-{level}"));
    }
    engine.run_until_quiescent(128);
    let parasites = engine.counters().get("da.parasite");
    (delivered_sets(&engine.into_processes()), parasites)
}

/// Runs the identical topology under the live runtime.
fn run_live(seed: u64, workers: usize) -> (Vec<Vec<EventId>>, u64) {
    let net = build_network(seed);
    let pubs = publishers(&net);
    let config = RuntimeConfig::default()
        .with_seed(seed)
        .with_workers(workers);
    let mut rt = Runtime::spawn(config, net.into_processes());
    for (level, pid) in pubs.into_iter().enumerate() {
        rt.with_process_mut(pid, move |p| p.publish(format!("event-{level}")));
    }
    rt.run_until_quiescent(128);
    let out = rt.shutdown();
    (
        delivered_sets(&out.processes),
        out.counters.get("da.parasite"),
    )
}

/// The audience of the level-`l` event: members of levels 0..=l (events
/// climb; they never flow down). With dense top-down pid allocation the
/// audience is exactly pids `0..prefix_sum(l)`.
fn audience_cutoff(level: usize) -> usize {
    SIZES[..=level].iter().sum()
}

#[test]
fn live_runtime_delivers_the_same_event_set_as_the_simulator() {
    let seed = 42;
    let (sim_sets, sim_parasites) = run_sim(seed);
    let (live_sets, live_parasites) = run_live(seed, 0);

    assert_eq!(sim_parasites, 0, "simulator run saw a parasite");
    assert_eq!(live_parasites, 0, "live run saw a parasite");
    assert_eq!(sim_sets.len(), live_sets.len());

    for (pid, (sim, live)) in sim_sets.iter().zip(&live_sets).enumerate() {
        assert_eq!(
            sim, live,
            "process {pid} delivered different event sets across substrates"
        );
    }
}

#[test]
fn both_substrates_blanket_the_full_audience() {
    let seed = 7;
    for (substrate, (sets, parasites)) in [("sim", run_sim(seed)), ("live", run_live(seed, 0))] {
        assert_eq!(parasites, 0, "{substrate}: parasite deliveries");
        let population: usize = SIZES.iter().sum();
        assert_eq!(sets.len(), population);
        // Event of level l (publisher = first member of level l) must be
        // delivered by exactly the processes of levels 0..=l.
        for (level, &size) in SIZES.iter().enumerate() {
            let cutoff = audience_cutoff(level);
            // Each level's event id is reconstructible: publisher is the
            // first member of the level, sequence 0.
            let publisher = ProcessId::from_index(cutoff - size);
            let id = EventId {
                publisher,
                sequence: 0,
            };
            for (pid, delivered) in sets.iter().enumerate() {
                let interested = pid < cutoff;
                assert_eq!(
                    delivered.binary_search(&id).is_ok(),
                    interested,
                    "{substrate}: process {pid} vs level-{level} event (audience < {cutoff})"
                );
            }
        }
    }
}

#[test]
fn live_outcome_is_stable_across_pool_shapes() {
    // The guarantee must not depend on how processes map to workers.
    let (one, p1) = run_live(3, 1);
    let (eight, p8) = run_live(3, 8);
    assert_eq!(p1, 0);
    assert_eq!(p8, 0);
    assert_eq!(one, eight, "worker count changed the delivered event sets");
}

/// A smaller chain for the property sweep below — each case runs the
/// full workload on both substrates, so the topology is kept modest.
const PROP_SIZES: [usize; 3] = [4, 10, 40];

/// One publication per level driven to quiescence on the given
/// substrate over a lossy, possibly multi-tick-latency channel.
/// Returns per-process delivered sets, the parasite count, and the
/// flight-recorder trace (captured so a parity failure can name the
/// first divergent envelope instead of just "the sets differ").
fn run_lossy(
    seed: u64,
    channel: ChannelConfig,
    live: Option<RuntimeConfig>,
) -> (Vec<Vec<EventId>>, u64, TraceLog) {
    let net = StaticNetwork::linear(&PROP_SIZES, pinned_params(), seed).expect("valid topology");
    let pubs = publishers(&net);
    match live {
        Some(config) => {
            let mut rt = Runtime::spawn(
                config
                    .with_seed(seed)
                    .with_channel(channel)
                    .with_trace(TraceConfig::full()),
                net.into_processes(),
            );
            for (level, pid) in pubs.into_iter().enumerate() {
                rt.with_process_mut(pid, move |p| p.publish(format!("event-{level}")));
            }
            rt.run_until_quiescent(192);
            let out = rt.shutdown();
            (
                delivered_sets(&out.processes),
                out.counters.get("da.parasite"),
                out.trace.expect("tracing was enabled"),
            )
        }
        None => {
            let config = SimConfig::default()
                .with_seed(seed)
                .with_channel(channel)
                .with_trace(TraceConfig::full());
            let mut engine: Engine<DaProcess> = Engine::new(config, net.into_processes());
            for (level, pid) in pubs.into_iter().enumerate() {
                engine.process_mut(pid).publish(format!("event-{level}"));
            }
            engine.run_until_quiescent(192);
            let parasites = engine.counters().get("da.parasite");
            let trace = engine.trace_log().expect("tracing was enabled");
            (delivered_sets(&engine.into_processes()), parasites, trace)
        }
    }
}

/// One publication per level over `ticks` fixed rounds/ticks (no
/// quiescence cut-off, so the churn horizon is identical on both
/// substrates) under a failure model. Returns per-process delivered
/// sets plus the parasite count.
fn run_churned(
    seed: u64,
    channel: ChannelConfig,
    failure: &FailureModel,
    ticks: u64,
    live: Option<RuntimeConfig>,
) -> (Vec<Vec<EventId>>, u64, TraceLog) {
    let net = StaticNetwork::linear(&PROP_SIZES, pinned_params(), seed).expect("valid topology");
    let pubs = publishers(&net);
    match live {
        Some(config) => {
            let mut rt = Runtime::spawn(
                config
                    .with_seed(seed)
                    .with_channel(channel)
                    .with_failures(failure.clone())
                    .with_trace(TraceConfig::full()),
                net.into_processes(),
            );
            for (level, pid) in pubs.into_iter().enumerate() {
                rt.with_process_mut(pid, move |p| p.publish(format!("event-{level}")));
            }
            rt.run_ticks(ticks);
            let out = rt.shutdown();
            (
                delivered_sets(&out.processes),
                out.counters.get("da.parasite"),
                out.trace.expect("tracing was enabled"),
            )
        }
        None => {
            let config = SimConfig::default()
                .with_seed(seed)
                .with_channel(channel)
                .with_failures(failure.clone())
                .with_trace(TraceConfig::full());
            let mut engine: Engine<DaProcess> = Engine::new(config, net.into_processes());
            for (level, pid) in pubs.into_iter().enumerate() {
                engine.process_mut(pid).publish(format!("event-{level}"));
            }
            engine.run_rounds(ticks);
            let parasites = engine.counters().get("da.parasite");
            let trace = engine.trace_log().expect("tracing was enabled");
            (delivered_sets(&engine.into_processes()), parasites, trace)
        }
    }
}

/// Which processes stay alive for the whole horizon under the (shared)
/// churn plan — computed by replaying the plan's stateless transitions
/// (`FailurePlan::step_alive`), which is exactly what both substrates
/// execute.
fn never_crashed(seed: u64, population: usize, ticks: u64, failure: &FailureModel) -> Vec<bool> {
    let plan = failure.materialize(population, seed);
    (0..population)
        .map(|i| {
            let pid = ProcessId::from_index(i);
            let mut alive = !plan.is_initially_crashed(pid);
            let mut always = alive;
            for t in 0..ticks {
                alive = plan.step_alive(pid, t, alive);
                always &= alive;
            }
            always
        })
        .collect()
}

proptest! {
    // Each case is two full multi-substrate runs; 12 cases keep the
    // sweep well under a second while covering the workers × max_lag ×
    // latency grid several times over.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite requirement: delivered-event-set parity between the
    /// barrier-free runtime and the simulator across pool widths, lag
    /// windows, and lossy channels. The channel loses 10% of sends and
    /// may hold survivors for several ticks (which is what opens a real
    /// worker-drift window at `max_lag > 1`); the pinned-high trade-off
    /// knobs make gossip effectively atomic despite the loss, so both
    /// substrates must still deliver every event to its exact audience
    /// — byte-for-byte equal delivered sets.
    #[test]
    fn barrier_free_runtime_matches_simulator_under_loss(
        seed in 1u64..100_000,
        workers in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        max_lag in prop_oneof![Just(1u64), Just(2), Just(4)],
        min_latency in 1u64..=3,
    ) {
        let channel = ChannelConfig::reliable()
            .with_success_probability(0.9)
            .with_latency(Latency::Fixed(min_latency));
        let (sim_sets, sim_parasites, sim_trace) = run_lossy(seed, channel, None);
        let live_config = RuntimeConfig::default()
            .with_workers(workers)
            .with_max_lag(max_lag);
        let (live_sets, live_parasites, live_trace) = run_lossy(seed, channel, Some(live_config));

        prop_assert_eq!(sim_parasites, 0, "simulator saw a parasite");
        prop_assert_eq!(live_parasites, 0, "live runtime saw a parasite");
        prop_assert_eq!(sim_sets.len(), live_sets.len());
        let mismatched: Vec<usize> = sim_sets
            .iter()
            .zip(&live_sets)
            .enumerate()
            .filter_map(|(pid, (sim, live))| (sim != live).then_some(pid))
            .collect();
        prop_assert!(
            mismatched.is_empty(),
            "processes {:?} delivered different event sets \
             (workers={}, max_lag={}, latency={}); {}",
            mismatched, workers, max_lag, min_latency,
            describe_divergence(&sim_trace, &live_trace)
        );
    }
}

proptest! {
    // Each case is again two full runs; 8 cases cover the churn ×
    // loss × lag grid the tentpole names while keeping the suite fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite requirement: delivered-set parity under **combined
    /// churn × 10% loss × `workers ∈ {1, 2, 4}` × `max_lag ∈ {1, 4}`**
    /// — the slab `ProcessStore` stripes differently at every worker
    /// count, so this sweep pins storage layout out of the delivered
    /// sets. Both substrates
    /// materialise the identical `FailurePlan` from the shared seed, so
    /// the crash/recovery schedule is the same tick-for-tick; processes
    /// that stay alive for the whole horizon must then deliver
    /// byte-for-byte equal event sets (the pinned-high knobs make gossip
    /// effectively atomic for the surviving cohort despite the loss).
    /// Processes that spent time crashed are excluded from the
    /// comparison: their receipt windows legitimately differ with the
    /// substrates' differing channel-draw sequences.
    #[test]
    fn churned_runtime_matches_simulator_for_surviving_cohort(
        seed in 1u64..100_000,
        workers in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        max_lag in prop_oneof![Just(1u64), Just(4)],
    ) {
        // 64 ticks: ample for dissemination (the quiescence budget other
        // suites use) while P(never crashed) = 0.99^64 ≈ 0.53 keeps the
        // surviving cohort large.
        const TICKS: u64 = 64;
        let channel = ChannelConfig::reliable()
            .with_success_probability(0.9)
            .with_latency(Latency::Fixed(2));
        let failure = FailureModel::Churn {
            crash_probability: 0.01,
            recover_probability: 0.3,
        };
        let (sim_sets, sim_parasites, sim_trace) = run_churned(seed, channel, &failure, TICKS, None);
        let live_config = RuntimeConfig::default()
            .with_workers(workers)
            .with_max_lag(max_lag);
        let (live_sets, live_parasites, live_trace) =
            run_churned(seed, channel, &failure, TICKS, Some(live_config));

        prop_assert_eq!(sim_parasites, 0, "simulator saw a parasite");
        prop_assert_eq!(live_parasites, 0, "live runtime saw a parasite");
        prop_assert_eq!(sim_sets.len(), live_sets.len());
        let population: usize = PROP_SIZES.iter().sum();
        let survivors = never_crashed(seed, population, TICKS, &failure);
        let surviving = survivors.iter().filter(|&&s| s).count();
        prop_assert!(surviving * 5 > population, "churn left too few survivors");
        let mismatched: Vec<usize> = sim_sets
            .iter()
            .zip(&live_sets)
            .enumerate()
            .filter_map(|(pid, (sim, live))| {
                (survivors[pid] && sim != live).then_some(pid)
            })
            .collect();
        prop_assert!(
            mismatched.is_empty(),
            "surviving processes {:?} delivered different event sets \
             (workers={}, max_lag={}); {}",
            mismatched, workers, max_lag,
            describe_divergence(&sim_trace, &live_trace)
        );
    }
}
