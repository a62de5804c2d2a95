//! Cross-substrate equivalence: the *same* protocol instances, built by
//! the same `Network`, must deliver the same event set whether
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

use da_core::testkit::{LifeProbe, Relay};
use da_core::wheel::MAX_RING_TICKS;
use da_core::{
    first_divergence, ChannelConfig, EdgeRngs, FailureModel, Family, Fate, Kind, Latency, NetFate,
    NetworkModel, ProcessId, RunConfig, TraceConfig, TraceLog, TraceVerdict,
};
use da_harness::experiments::live::{delivered_sets, pinned_params};
use da_harness::experiments::trace::describe_divergence;
use da_harness::substrate::{Driver, Substrate};
use da_membership::static_init::assign_group_members;
use da_simnet::{Engine, Strategy};
use da_tape::{check_cases, prop_assert, prop_assert_eq};
use da_topics::TopicHierarchy;
use damulticast::{DaProcess, EventId, GroupSpec, Network, TopicParams};
use rand::rngs::SmallRng;
use std::sync::Arc;
use support::Logged;

mod support;

/// The paper's Sec. VII-A topology with pinned-high trade-off knobs.
const SIZES: [usize; 3] = [10, 100, 1000];

const SIM: Substrate = Substrate::Sim;

/// One event per level — published by the level's first member (leaf,
/// mid, root events) — on a `sizes` chain under `config`, with the
/// recorder on so a parity failure can name the first divergent envelope
/// instead of just "the sets differ". `advance` runs the published
/// population: to quiescence, or for a fixed horizon. Returns
/// per-process delivered sets, the parasite count and the trace.
fn run(
    substrate: Substrate,
    sizes: &[usize],
    config: &RunConfig,
    advance: impl FnOnce(&mut Driver<DaProcess>),
) -> (Vec<Vec<EventId>>, u64, TraceLog) {
    let params = pinned_params(20.0, 12.0);
    let net = Network::linear(sizes, params, config.seed).expect("valid topology");
    let publishers: Vec<ProcessId> = net.groups().iter().map(|g| g.members[0]).collect();
    let procs = net.into_processes();
    let config = config.clone().with_trace(TraceConfig::full());
    let mut driver = Driver::spawn(substrate, config, procs);
    for (level, pid) in publishers.into_iter().enumerate() {
        driver.apply(pid, move |p| p.publish(format!("event-{level}")));
    }
    advance(&mut driver);
    let out = driver.finish();
    (
        delivered_sets(&out.processes),
        out.tally.total(Family::Da, Kind::Parasite),
        out.trace.expect("tracing was enabled"),
    )
}

/// The paper topology over perfect channels, to quiescence.
fn run_paper(substrate: Substrate, seed: u64) -> (Vec<Vec<EventId>>, u64) {
    let config = RunConfig::default().with_seed(seed);
    let (sets, parasites, _) = run(substrate, &SIZES, &config, |driver| {
        driver.run_until_quiescent(128);
    });
    (sets, parasites)
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
    let (sim_sets, sim_parasites) = run_paper(SIM, seed);
    let (live_sets, live_parasites) = run_paper(Substrate::Live { workers: 0 }, seed);

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
    for substrate in [SIM, Substrate::Live { workers: 0 }] {
        let (sets, parasites) = run_paper(substrate, seed);
        assert_eq!(parasites, 0, "{substrate:?}: parasite deliveries");
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
                    "{substrate:?}: process {pid} vs level-{level} event (audience < {cutoff})"
                );
            }
        }
    }
}

#[test]
fn live_outcome_is_stable_across_pool_shapes() {
    // The guarantee must not depend on how processes map to workers.
    let (one, p1) = run_paper(Substrate::Live { workers: 1 }, 3);
    let (eight, p8) = run_paper(Substrate::Live { workers: 8 }, 3);
    assert_eq!(p1, 0);
    assert_eq!(p8, 0);
    assert_eq!(one, eight, "worker count changed the delivered event sets");
}

/// The same seed materialises the same `FailurePlan` fates on the
/// simulator and on the runtime, regardless of worker count — every
/// process executes the exact same set of rounds, is recovered the same
/// number of times, and ends in the same status.
#[test]
fn failure_fates_match_the_simulator_at_any_worker_count() {
    let config = RunConfig::default()
        .with_seed(11)
        .with_failures(FailureModel::Churn {
            crash_probability: 0.15,
            recover_probability: 0.3,
        });
    let run = |substrate: Substrate| {
        let probes = vec![LifeProbe::default(); 12];
        let mut driver = Driver::spawn(substrate, config.clone(), probes);
        driver.run_ticks(40);
        let out = driver.finish();
        let schedules: Vec<(Vec<u64>, u64)> = out
            .processes
            .into_iter()
            .map(|p| (p.rounds, p.recoveries))
            .collect();
        (schedules, out.statuses, out.ledger)
    };
    let sim = run(SIM);
    assert!(
        sim.2.churn_crashes > 0 && sim.2.churn_recoveries > 0,
        "the run saw churn"
    );
    for workers in [1, 4] {
        assert_eq!(run(Substrate::Live { workers }), sim, "{workers} workers");
    }
}

/// The replayed chain: `[10, 100, 400]` under the paper's parameters.
fn chain(seed: u64) -> Network {
    Network::linear(&[10, 100, 400], TopicParams::default(), seed).expect("valid topology")
}

/// A diamond under the paper's parameters: `.a` and `.b` below the root
/// and `.a.c` below both (Sec. VIII's multiple inheritance), with groups
/// of 10, 40, 40 and 200 top-down.
fn diamond(seed: u64) -> Network {
    let mut h = TopicHierarchy::from_paths([".a.c", ".b"]).expect("valid paths");
    let [a, b, c] = [".a", ".b", ".a.c"].map(|p| h.resolve(p).expect("inserted"));
    h.add_supertopic(c, b).expect("a new edge");
    let groups = [h.root(), a, b, c]
        .into_iter()
        .zip(assign_group_members(&[10, 40, 40, 200]))
        .map(|(topic, members)| GroupSpec { topic, members })
        .collect();
    Network::from_groups(Arc::new(h), groups, TopicParams::default(), seed).expect("valid topology")
}

/// On reliable channels a one-worker pool replays the simulator: the same
/// ledger and tally, the same delivery order at every process, the
/// same flight-recorder stream in capture order (every envelope's tick,
/// edge, size and verdict; it names no event), the same final statuses
/// and the same quiescent tick, under each of the
/// paper's failure models, on a chain and on a diamond. Both deliver a
/// tick's dues in send order, draw per-observer failures on worker 0's
/// observer stream in that order, and churn from the shared plan. Lossy
/// channels are out of scope: the simulator draws fates on its engine
/// stream, the pool on keyed edge streams.
#[test]
fn a_one_worker_pool_replays_the_simulator_on_reliable_channels() {
    let models = [
        FailureModel::None,
        FailureModel::Stillborn {
            alive_fraction: 0.8,
        },
        FailureModel::PerObserver {
            alive_fraction: 0.8,
        },
        FailureModel::Churn {
            crash_probability: 0.01,
            recover_probability: 0.2,
        },
    ];
    let shapes = [("chain", chain as fn(u64) -> Network), ("diamond", diamond)];
    for ((shape, build), failure) in shapes
        .into_iter()
        .flat_map(|shape| models.iter().map(move |failure| (shape, failure)))
    {
        for seed in [1, 2] {
            let config = RunConfig::default()
                .with_seed(seed)
                .with_failures(failure.clone())
                .with_trace(TraceConfig::full());
            let run = |substrate: Substrate| {
                let net = build(seed);
                let leaf = net.groups().last().expect("a leaf group").members[..8].to_vec();
                let processes = Logged::all(net.into_processes());
                let mut driver = Driver::spawn(substrate, config.clone(), processes);
                for pid in leaf {
                    driver.apply(pid, |p| p.process.publish("wave"));
                }
                let quiescent = driver.run_until_quiescent(256);
                let out = driver.finish();
                let trace = out.trace.expect("tracing is on");
                assert_eq!(trace.dropped_events, 0, "{substrate:?} kept every event");
                let tallied = (out.ledger, out.tally);
                let (processes, logs): (Vec<DaProcess>, Vec<Vec<EventId>>) = out
                    .processes
                    .into_iter()
                    .map(|p| (p.process, p.log))
                    .unzip();
                let sets = delivered_sets(&processes);
                (tallied, quiescent, out.statuses, sets, logs, trace.events)
            };
            let (sim, live) = (run(SIM), run(Substrate::Live { workers: 1 }));
            let case = format!("{shape}, {failure:?}, seed {seed}");
            assert_eq!(sim.0, live.0, "ledger and tally: {case}");
            assert_eq!(sim.1, live.1, "quiescent tick: {case}");
            assert!(sim.2 == live.2, "final statuses: {case}");
            assert!(sim.3 == live.3, "delivered sets: {case}");
            assert!(sim.4 == live.4, "ordered delivery logs: {case}");
            // Every send, receipt, drop and transition in capture order.
            assert!(sim.5 == live.5, "event streams in capture order: {case}");
        }
    }
}

/// A crash and a recovery of one process scripted into the same round
/// are one net transition (`FailurePlan::transition`): the process never
/// goes down, re-enters through `on_recover` once, and the trace holds a
/// single `Recovered` — on both substrates.
#[test]
fn same_round_crash_and_recovery_matches_the_simulator() {
    let fate = |crash| Fate {
        round: 2,
        pid: ProcessId(1),
        crash,
    };
    let config = RunConfig::default()
        .with_failures(FailureModel::Schedule(vec![fate(true), fate(false)]))
        .with_trace(TraceConfig::full());
    let run = |substrate: Substrate| {
        let probes = vec![LifeProbe::default(); 4];
        let mut driver = Driver::spawn(substrate, config.clone(), probes);
        driver.run_ticks(5);
        let out = driver.finish();
        let trace = out.trace.expect("tracing is on");
        let lifecycle: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.verdict, TraceVerdict::Crashed | TraceVerdict::Recovered))
            .map(|e| (e.tick, e.from, e.verdict))
            .collect();
        let recovered = (2, ProcessId(1), TraceVerdict::Recovered);
        assert_eq!(lifecycle, [recovered], "{substrate:?}");
        for (pid, probe) in out.processes.iter().enumerate() {
            assert_eq!(probe.recoveries, u64::from(pid == 1), "{substrate:?} {pid}");
            assert_eq!(probe.rounds, [0, 1, 2, 3, 4], "nobody missed a round");
        }
        trace.canonical_events()
    };
    assert_eq!(
        first_divergence(&run(SIM), &run(Substrate::Live { workers: 2 })),
        None
    );
}

/// A smaller chain for the property sweep below — each case runs the
/// full workload on both substrates, so the topology is kept modest. The
/// top two groups have 10 members: a 10-member table is every mate
/// (`⌈4·ln 10⌉ ≥ 9`) and the `ln S + 12` fanout reaches all of them, so
/// a member misses an event only when all nine copies sent to it are
/// lost. A 4-member top group capped the fanout at 3, and under 10% loss
/// about one random stream in eight lost a root member's event on one
/// substrate and not the other.
const PROP_SIZES: [usize; 3] = [10, 10, 40];

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

/// Satellite requirement: delivered-event-set parity between the
/// barrier-free runtime and the simulator across pool widths, lag
/// windows, and lossy channels. The channel loses 10% of sends and
/// holds survivors for 1–4 ticks (the latency floor is the pool's
/// worker-drift window); the pinned-high trade-off knobs and the
/// fully meshed top groups of [`PROP_SIZES`] make gossip effectively
/// atomic despite the loss, so both substrates must still deliver
/// every event to its exact audience — byte-for-byte equal delivered
/// sets.
#[test]
fn barrier_free_runtime_matches_simulator_under_loss() {
    // Each case is two full multi-substrate runs; 12 cases keep the
    // sweep well under a second while covering the workers × latency
    // grid several times over.
    check_cases(
        "barrier_free_runtime_matches_simulator_under_loss",
        12,
        |t| {
            let seed = t.range(1u64..100_000);
            let latency = t.range(1u64..=4);
            let workers = t.pick(&[1usize, 2, 4, 8]);
            let config = RunConfig::default().with_seed(seed).with_channel(
                ChannelConfig::reliable()
                    .with_success_probability(0.9)
                    .with_latency(Latency::Fixed(latency)),
            );
            let [(sim_sets, sim_parasites, sim_trace), (live_sets, live_parasites, live_trace)] =
                [SIM, Substrate::Live { workers }].map(|substrate| {
                    run(substrate, &PROP_SIZES, &config, |driver| {
                        driver.run_until_quiescent(192);
                    })
                });

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
             (workers={}, latency={}); {}",
                mismatched,
                workers,
                latency,
                describe_divergence(&sim_trace, &live_trace)
            );
            Ok(())
        },
    );
}

/// Satellite requirement: delivered-set parity under **combined
/// churn × 10% loss × `workers ∈ {1, 2, 4, 8}` × a latency floor (=
/// drift window) of 1–4 ticks**
/// — the slab `ProcessStore` stripes differently at every worker
/// count, so this sweep pins storage layout out of the delivered
/// sets. Both substrates
/// materialise the identical `FailurePlan` from the shared seed, so
/// the crash/recovery schedule is the same tick-for-tick; processes
/// that stay alive for the whole horizon must then deliver
/// byte-for-byte equal event sets (the pinned-high knobs and the
/// fully meshed top groups make gossip effectively atomic for the
/// surviving cohort despite the loss).
/// Processes that spent time crashed are excluded from the
/// comparison: their receipt windows legitimately differ with the
/// substrates' differing channel-draw sequences.
#[test]
fn churned_runtime_matches_simulator_for_surviving_cohort() {
    // Each case is again two full runs; 8 cases cover the churn ×
    // loss × latency grid while keeping the suite fast.
    check_cases(
        "churned_runtime_matches_simulator_for_surviving_cohort",
        8,
        |t| {
            let seed = t.range(1u64..100_000);
            let workers = t.pick(&[1usize, 2, 4, 8]);
            let latency = t.range(1u64..=4);
            // 64 ticks: ample for dissemination (the quiescence budget other
            // suites use) while P(never crashed) = 0.99^64 ≈ 0.53 keeps the
            // surviving cohort large.
            const TICKS: u64 = 64;
            let failure = FailureModel::Churn {
                crash_probability: 0.01,
                recover_probability: 0.3,
            };
            let config = RunConfig::default()
                .with_seed(seed)
                .with_channel(
                    ChannelConfig::reliable()
                        .with_success_probability(0.9)
                        .with_latency(Latency::Fixed(latency)),
                )
                .with_failures(failure.clone());
            // A fixed horizon: the churn schedule must cover the same ticks
            // on both substrates.
            let [(sim_sets, sim_parasites, sim_trace), (live_sets, live_parasites, live_trace)] =
                [SIM, Substrate::Live { workers }].map(|substrate| {
                    run(substrate, &PROP_SIZES, &config, |driver| {
                        driver.run_ticks(TICKS)
                    })
                });

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
                .filter_map(|(pid, (sim, live))| (survivors[pid] && sim != live).then_some(pid))
                .collect();
            prop_assert!(
                mismatched.is_empty(),
                "surviving processes {:?} delivered different event sets \
             (workers={}, latency={}); {}",
                mismatched,
                workers,
                latency,
                describe_divergence(&sim_trace, &live_trace)
            );
            Ok(())
        },
    );
}

/// The simulator drawing each send's fate the way the pool does: on the
/// stateless per-edge RNG keyed by `(edge, tick, occurrence)` under the
/// run's seed, so one seed gives both substrates the same latencies.
struct EdgeKeyed(EdgeRngs);

impl EdgeKeyed {
    /// The fate of the `occurrence`-th send on `from → to` in `tick`.
    fn draw(
        &self,
        network: &NetworkModel,
        from: ProcessId,
        to: ProcessId,
        tick: u64,
        occurrence: u32,
    ) -> NetFate {
        let key = [from.0, to.0, occurrence].map(u64::from);
        let mut rng = self.0.draw_rng(key[0], key[1], tick, key[2]);
        network.decide_fate(from, to, tick, occurrence, &mut rng)
    }
}

impl Strategy for EdgeKeyed {
    fn fate(
        &mut self,
        network: &NetworkModel,
        from: ProcessId,
        to: ProcessId,
        tick: u64,
        occurrence: u32,
        _: &mut SmallRng,
    ) -> NetFate {
        self.draw(network, from, to, tick, occurrence)
    }
}

/// A relay ring at the slowest latency a ring is sized for, fixed and
/// jittered: the simulator (drawing as the pool does) and a 2-worker
/// pool record equal canonical traces, and every envelope arrives on
/// the tick its drawn latency makes it due.
#[test]
fn a_relay_at_the_ring_bound_traces_alike_on_both_substrates() {
    const POPULATION: u32 = 8;
    const SEND_ROUNDS: u64 = 8;
    for latency in [
        Latency::Fixed(MAX_RING_TICKS),
        Latency::UniformRounds {
            min: 1,
            max: MAX_RING_TICKS,
        },
    ] {
        let config = RunConfig::default()
            .with_seed(5)
            .with_channel(ChannelConfig::reliable().with_latency(latency))
            .with_trace(TraceConfig::full());
        let ticks = SEND_ROUNDS + MAX_RING_TICKS + 1;
        let procs = Relay::ring(POPULATION, SEND_ROUNDS);

        let mut engine = Engine::new(config.clone(), procs.clone());
        let mut edge_keyed = EdgeKeyed(EdgeRngs::new(config.seed));
        for _ in 0..ticks {
            engine.step_round_with(&mut edge_keyed);
        }
        let sim_trace = engine.trace_log().expect("tracing is on");
        let sim = engine.into_processes();

        let mut driver = Driver::spawn(Substrate::Live { workers: 2 }, config.clone(), procs);
        driver.run_ticks(ticks);
        let out = driver.finish();
        let live_trace = out.trace.expect("tracing is on");

        let (sim_events, live_events) =
            (sim_trace.canonical_events(), live_trace.canonical_events());
        assert_eq!(
            first_divergence(&sim_events, &live_events),
            None,
            "{latency:?}"
        );
        assert_eq!(out.ledger.dropped_shutdown, 0, "{latency:?}: all landed");

        // Process `to` hears from `to − 1` once per send round, on the
        // tick the send's latency, drawn on its edge key, makes it due.
        for (to, (sim, live)) in sim.iter().zip(&out.processes).enumerate() {
            let to = ProcessId(to as u32);
            let from = ProcessId((to.0 + POPULATION - 1) % POPULATION);
            let mut due: Vec<u64> = (0..SEND_ROUNDS)
                .map(
                    |tick| match edge_keyed.draw(&config.faults.network, from, to, tick, 0) {
                        NetFate::Deliver { latency } => tick + latency,
                        fate => panic!("reliable channel: {fate:?}"),
                    },
                )
                .collect();
            due.sort_unstable();
            assert_eq!(sim.received, due, "{latency:?}: simulator at {to}");
            assert_eq!(live.received, due, "{latency:?}: pool at {to}");
        }
    }
}

/// A latency one tick past the ring's bound is config input out of
/// range: the simulator and the pool refuse it at construction, with
/// the same message naming it.
#[test]
fn a_latency_past_the_ring_bound_is_refused_alike() {
    let refusal = |build: &dyn Fn()| -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .expect_err("the configuration must be refused");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic message")
    };
    for (latency, slowest) in [
        (Latency::Fixed(MAX_RING_TICKS + 1), MAX_RING_TICKS + 1),
        (
            Latency::UniformRounds {
                min: 1,
                max: MAX_RING_TICKS + 1,
            },
            MAX_RING_TICKS + 1,
        ),
        (Latency::Fixed(u64::MAX), u64::MAX),
    ] {
        let config =
            RunConfig::default().with_channel(ChannelConfig::reliable().with_latency(latency));
        // Both substrates' constructors, through the harness.
        let [sim, live] = [SIM, Substrate::Live { workers: 2 }].map(|substrate| {
            refusal(&|| drop(Driver::spawn(substrate, config.clone(), Relay::ring(2, 1))))
        });
        assert_eq!(sim, live, "{latency:?}");
        assert!(
            sim.contains(&format!("latency of {slowest} ticks")),
            "{sim}"
        );
    }
}
