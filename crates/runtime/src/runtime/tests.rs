use super::*;
use da_core::channel::{ChannelConfig, Latency};
use da_core::testkit::{LifeProbe, Relay};
use da_core::trace::{TraceConfig, TraceVerdict};
use da_core::{Exec, Family, Kind};

/// The shared ring relay, sending in ticks `0..5`.
fn relay_procs(n: u32) -> Vec<Relay> {
    Relay::ring(n, 5)
}

fn relay_runtime(n: u32, workers: usize) -> Runtime<Relay> {
    Runtime::spawn(
        RuntimeConfig::default().with_workers(workers).with_seed(1),
        relay_procs(n),
    )
}

/// Applies `f` to `pid` on its worker without waiting for it: what
/// `with_process_mut` sends, minus the reply. A worker that sleeps or
/// dies in `f` holds up the caller's next wait on it, not this call.
fn inject<P: ExecProtocol>(
    rt: &Runtime<P>,
    pid: ProcessId,
    f: impl FnOnce(&mut P) + Send + 'static,
) {
    let worker = pid.index() % rt.controls.len();
    rt.send_control(
        worker,
        Control::Apply {
            pid,
            f: Box::new(f),
        },
    )
    .unwrap_or_else(|_| panic!("runtime worker for {pid} terminated"));
}

#[test]
fn effective_lag_is_channel_capped_and_never_zero() {
    let fixed = |ticks| {
        RuntimeConfig::default()
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(ticks)))
    };
    assert_eq!(effective_lag(&RuntimeConfig::default()), 1);
    assert_eq!(effective_lag(&fixed(0)), 1, "never zero");
    assert_eq!(effective_lag(&fixed(4)), 4);
    // The bound `Runtime::spawn` enforces caps the lag and the lanes.
    let slowest = fixed(da_core::wheel::MAX_RING_TICKS);
    assert_eq!(effective_lag(&slowest), 1_024);
    assert_eq!(lane_capacity(&RuntimeConfig::default()), 3);
    assert_eq!(lane_capacity(&slowest), 1_026);
    let jittery = RuntimeConfig::default().with_channel(
        ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 2, max: 6 }),
    );
    assert_eq!(effective_lag(&jittery), 2);
}

#[test]
fn effective_workers_clamps() {
    let eight = RuntimeConfig::default().with_workers(8).pool;
    assert_eq!(
        effective_workers(&eight, 3),
        3,
        "never more workers than procs"
    );
    assert_eq!(effective_workers(&eight, 100), 8);
    assert_eq!(
        effective_workers(&eight, 0),
        1,
        "empty population still ticks"
    );
    assert!(effective_workers(&PoolConfig::default(), 1_000_000) >= 1);
}

#[test]
fn messages_delivered_exactly_next_tick() {
    let mut rt = relay_runtime(8, 3);
    let r0 = rt.step_tick();
    assert_eq!(r0.sent, 8);
    assert_eq!(r0.delivered, 0, "nothing in flight during tick 0");
    let r1 = rt.step_tick();
    assert_eq!(r1.delivered, 8);
    let out = rt.shutdown();
    // The on_message assertion above checked per-delivery latency.
    assert_eq!(out.ledger.delivered, 8);
}

#[test]
fn quiescence_detected_and_counts_balance() {
    let mut rt = relay_runtime(10, 4);
    let executed = rt.run_until_quiescent(64);
    assert!(executed < 64, "relay goes quiet after tick 5");
    let out = rt.shutdown();
    // 10 processes × ticks 0..5 = 50 sends, all delivered.
    assert_eq!(out.ledger.sent, 50);
    assert_eq!(out.ledger.delivered, 50);
    assert_eq!(out.ledger.bytes_sent, 400);
    assert_eq!(out.ledger.dropped_channel, 0);
    assert_eq!(out.ledger.dropped_shutdown, 0);
    let total: usize = out.processes.iter().map(|p| p.received.len()).sum();
    assert_eq!(total, 50);
}

/// The quiescent tick is never overshot: no worker executes a round
/// hook past the tick `run_until_quiescent` reports, however far the
/// pipelined grants ran. A protocol that would send again *after*
/// the quiet tick must not get the chance on either substrate.
#[test]
fn quiescence_never_overshoots() {
    struct Sleeper {
        rounds_seen: u64,
    }
    impl ExecProtocol for Sleeper {
        type Msg = ();
        fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), _c: &mut X) {}
        fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, ctx: &mut X) {
            self.rounds_seen = round + 1;
            // Would wake the pool again — but quiescence at tick 0
            // must stop the run long before.
            if round == 30 {
                ctx.send(ctx.me(), ());
            }
        }
    }
    let procs = (0..6).map(|_| Sleeper { rounds_seen: 0 }).collect();
    let mut rt = Runtime::spawn(RuntimeConfig::default().with_workers(3).with_seed(1), procs);
    let executed = rt.run_until_quiescent(64);
    assert_eq!(executed, 1, "tick 0 is already quiet");
    let out = rt.shutdown();
    for p in &out.processes {
        assert_eq!(p.rounds_seen, 1, "no hook ran past the quiet tick");
    }
    assert_eq!(out.ledger.sent, 0);
}

/// The quiet tick is not overshot when the last envelope is consumed
/// undelivered either: p0's one send, due at `d`, meets p1 crashed, so
/// tick `d` is quiet and only the proofs of the ticks before it may
/// have granted anything — a held envelope proves `d + 1`, not `d + 2`.
#[test]
fn quiescence_never_overshoots_an_undelivered_last_envelope() {
    use da_core::failure::{FailureModel, Fate};
    struct Once {
        rounds_seen: u64,
    }
    impl ExecProtocol for Once {
        type Msg = ();
        fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), _c: &mut X) {}
        fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, ctx: &mut X) {
            self.rounds_seen = round + 1;
            // Round 30 would wake the pool again, long after the quiet tick.
            if (round == 0 && ctx.me() == ProcessId(0)) || round == 30 {
                ctx.send(ProcessId(1), ());
            }
        }
    }
    // Seed 4 draws the jittery send's latency at 4, over the floor of 2:
    // p0's router holds it through two flushes before it ships.
    for (latency, quiet) in [
        (Latency::Fixed(3), 3),
        (Latency::UniformRounds { min: 2, max: 4 }, 4),
    ] {
        for workers in 1..=3 {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_seed(4)
                .with_channel(ChannelConfig::reliable().with_latency(latency))
                .with_failures(FailureModel::Schedule(vec![Fate {
                    round: 1,
                    pid: ProcessId(1),
                    crash: true,
                }]));
            let procs = (0..6).map(|_| Once { rounds_seen: 0 }).collect();
            let mut rt = Runtime::spawn(config, procs);
            let executed = rt.run_until_quiescent(64);
            let out = rt.shutdown();
            let at = format!("{latency:?} at {workers} workers");
            assert_eq!(out.ledger.dropped_crashed, 1, "{at}");
            assert_eq!(executed, quiet + 1, "{at}: quiet at the due tick");
            for p in &out.processes {
                assert!(
                    p.rounds_seen <= executed,
                    "{at}: a hook ran past the quiet tick"
                );
            }
        }
    }
}

#[test]
fn shutdown_returns_processes_in_pid_order() {
    struct Tag(usize);
    impl ExecProtocol for Tag {
        type Msg = ();
        fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), _c: &mut X) {}
    }
    // 23 processes: two and five workers hold uneven stripes.
    for workers in [1, 2, 5] {
        let procs = (0..23).map(Tag).collect();
        let mut rt = Runtime::spawn(RuntimeConfig::default().with_workers(workers), procs);
        rt.run_ticks(2);
        let out = rt.shutdown();
        let tags: Vec<usize> = out.processes.iter().map(|t| t.0).collect();
        assert_eq!(tags, (0..23).collect::<Vec<_>>(), "{workers} workers");
        assert_eq!(out.statuses.len(), 23, "{workers} workers");
    }
}

/// One worker owns every process in the caller's own vector: spawn
/// adopts it and shutdown hands it back, with no copy either way.
#[test]
fn one_worker_runs_and_returns_the_callers_allocation() {
    let procs = relay_procs(7);
    let at = procs.as_ptr();
    let mut rt = Runtime::spawn(RuntimeConfig::default().with_workers(1), procs);
    // Held while the pool runs: had spawn freed the caller's block,
    // this would take it, and no copy made at shutdown could.
    let decoy: Vec<Relay> = Vec::with_capacity(7);
    rt.run_ticks(3);
    let out = rt.shutdown();
    assert_eq!((out.processes.as_ptr(), out.processes.len()), (at, 7));
    drop(decoy);
    assert_eq!(out.statuses.len(), 7);
}

#[test]
fn with_process_mut_round_trips_a_result() {
    let mut rt = relay_runtime(6, 2);
    rt.run_ticks(3);
    let seen = rt.with_process_mut(ProcessId(4), |p| p.received.len());
    assert!(seen > 0);
    assert_eq!(rt.population(), 6);
    assert_eq!(rt.workers(), 2);
}

#[test]
#[should_panic(expected = "out of range")]
fn with_process_mut_rejects_unknown_pid() {
    let mut rt = relay_runtime(3, 2);
    rt.with_process_mut(ProcessId(99), |_| ());
}

#[test]
fn inject_lands_before_the_next_executed_tick() {
    let mut rt = relay_runtime(6, 3);
    rt.run_ticks(1);
    // Fire-and-forget: no reply, no barrier — the control drain at
    // the top of the worker's next tick must still apply it first.
    inject(&rt, ProcessId(4), |p| p.received.push(0xBEEF));
    rt.run_ticks(1);
    let seen = rt.with_process_mut(ProcessId(4), |p| p.received.clone());
    assert!(
        seen.contains(&0xBEEF),
        "injected mutation visible after one more tick: {seen:?}"
    );
}

#[test]
fn drop_without_shutdown_joins_cleanly() {
    let mut rt = relay_runtime(12, 4);
    rt.run_ticks(2);
    drop(rt); // must not hang or panic
}

/// Runs `scenario` on a thread of its own and fails when it has not
/// returned within `limit`: `with_process_mut`, `shutdown` and `drop`
/// have no watchdog, so a lost wake-up would hang them.
fn within(limit: Duration, scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        scenario();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(limit)
        .expect("the scenario blocked or panicked");
}

/// Every grant of a `step_tick` loop meets workers that are
/// spinning, about to block, or blocked — more of them than CPUs —
/// and none may sleep through it. The lowered watchdog turns a lost
/// wake-up into a failure within seconds.
#[test]
fn single_tick_grants_never_lose_a_wakeup() {
    let config = RuntimeConfig::default()
        .with_workers(4)
        .with_seed(1)
        .with_tick_timeout_ms(5_000);
    let mut rt = Runtime::spawn(config, relay_procs(8));
    for tick in 0..5_000 {
        assert_eq!(rt.step_tick().tick, tick);
    }
    let out = rt.shutdown();
    assert_eq!(out.ledger.delivered, 40);
}

/// Control sends reach a worker blocked in `park`: each of them is
/// followed by an unpark. The sleeps outlast the yield budget so the
/// workers are (almost surely) blocked; the checks hold either way.
#[test]
fn control_reaches_a_blocked_worker() {
    let idle = || std::thread::sleep(Duration::from_millis(20));
    within(Duration::from_secs(10), move || {
        let mut rt = relay_runtime(6, 3);
        rt.run_ticks(1);
        idle();
        assert_eq!(rt.with_process_mut(ProcessId(4), |p| p.received.len()), 0);
        idle();
        inject(&rt, ProcessId(4), |p| p.received.push(0xBEEF));
        assert_eq!(rt.step_tick().tick, 1);
        let seen = rt.with_process_mut(ProcessId(4), |p| p.received.clone());
        assert_eq!(seen, [0xBEEF, 1], "injected, then tick 1's delivery");
        idle();
        assert_eq!(rt.shutdown().ledger.delivered, 6);

        let mut rt = relay_runtime(6, 3);
        rt.run_ticks(1);
        idle();
        drop(rt); // joins an idle pool without `shutdown`
    });
}

/// An unpark that finds its worker running leaves a token behind,
/// and the next `park` returns at once. That only sends the worker
/// round its loop again: it executes no tick it was not granted, so
/// the run ends on the same tick with the same counters as one that
/// saw no stray token.
#[test]
fn stray_unpark_tokens_are_harmless() {
    let mut rt = relay_runtime(10, 4);
    for _ in 0..64 {
        inject(&rt, ProcessId(0), |p| p.received.push(0xBEEF));
    }
    assert_eq!(rt.run_until_quiescent(64), 7, "quiet at tick 6");
    let out = rt.shutdown();
    assert_eq!(out.ledger.sent, 50);
    assert_eq!(out.ledger.delivered, 50);
    assert_eq!(out.ledger.dropped_shutdown, 0);
    assert_eq!(out.processes[0].received.len(), 64 + 5);
    for p in &out.processes[1..] {
        assert_eq!(p.received, [1, 2, 3, 4, 5]);
    }
}

#[test]
fn single_worker_pool_works() {
    let mut rt = relay_runtime(5, 1);
    rt.run_until_quiescent(32);
    let out = rt.shutdown();
    assert_eq!(out.ledger.sent, 25);
}

/// Satellite requirement: the zero-latency (perfect) channel config
/// is byte-for-byte the fault-free data-plane behaviour — same
/// per-process receipt ticks, same counters — because the explicit
/// reliable config and the default are the same draw-free path.
#[test]
fn explicit_reliable_channel_equals_default_event_set() {
    let run = |config: RuntimeConfig| {
        let mut rt = Runtime::spawn(config.with_workers(3).with_seed(1), relay_procs(9));
        rt.run_until_quiescent(32);
        let out = rt.shutdown();
        let receipts: Vec<Vec<u64>> = out
            .processes
            .into_iter()
            .map(|p| {
                let mut r = p.received;
                r.sort_unstable();
                r
            })
            .collect();
        (receipts, out.ledger.sent, out.ledger.delivered)
    };
    let default = run(RuntimeConfig::default());
    let explicit = run(RuntimeConfig::default()
        .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(1))));
    assert_eq!(default, explicit);
}

#[test]
fn fixed_latency_delivers_exactly_k_ticks_later() {
    /// Process 0 sends one message to process 1 in tick 0; the
    /// receipt tick must honour the configured latency.
    struct OneShot {
        receipt: Option<u64>,
    }
    impl ExecProtocol for OneShot {
        type Msg = ();
        fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), ctx: &mut X) {
            self.receipt = Some(ctx.round());
        }
        fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, ctx: &mut X) {
            if round == 0 && ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), ());
            }
        }
    }
    let config = RuntimeConfig::default()
        .with_workers(2)
        .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(3)));
    let procs = (0..2).map(|_| OneShot { receipt: None }).collect();
    let mut rt = Runtime::spawn(config, procs);
    let reports = rt.run_ticks(5);
    // Ticks 1 and 2 hold the message pending; tick 3 delivers it.
    // Pending counts it from the tick its sender queued it, whenever
    // the batch reaches the receiver.
    assert_eq!(reports[0].pending, 1);
    assert_eq!(reports[1].pending, 1);
    assert_eq!(reports[2].pending, 1);
    assert_eq!(reports[3].delivered, 1);
    assert_eq!(reports[3].pending, 0);
    let out = rt.shutdown();
    assert_eq!(out.processes[1].receipt, Some(3));
    assert_eq!(out.ledger.dropped_shutdown, 0);
}

#[test]
fn pending_messages_defer_quiescence() {
    let config = RuntimeConfig::default()
        .with_workers(2)
        .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(4)));
    let mut rt = Runtime::spawn(config, relay_procs(6));
    let executed = rt.run_until_quiescent(64);
    assert!(executed < 64);
    let out = rt.shutdown();
    // Latency stretches the schedule but loses nothing.
    assert_eq!(out.ledger.sent, 30);
    assert_eq!(out.ledger.delivered, 30);
}

/// Satellite requirement: messages still in flight at `shutdown` are
/// accounted, not hung on. With latency 5, everything sent in the
/// two executed ticks is still in flight when the pool stops.
#[test]
fn shutdown_accounts_in_flight_messages() {
    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(5)));
    let mut rt = Runtime::spawn(config, relay_procs(8));
    rt.run_ticks(2);
    let out = rt.shutdown(); // must not hang waiting for due ticks
    let sent = out.ledger.sent;
    assert_eq!(sent, 16, "8 senders × 2 ticks");
    assert_eq!(out.ledger.delivered, 0);
    assert_eq!(out.ledger.dropped_shutdown, sent);
}

/// Satellite requirement (dropped_shutdown audit): with workers
/// drifting under a nonzero lag window, a mid-flight shutdown must
/// still account every queued envelope exactly once — whether its
/// sender's router still holds it for a later due tick, it waits in a
/// receiver's batch FIFO or on a lane behind a watermark, or it was
/// already delivered.
#[test]
fn shutdown_accounting_is_exact_at_nonzero_lag() {
    // Jitter above a floor of 2 leaves envelopes waiting past their send
    // tick for a slower due tick; a fixed latency never does.
    let fixed = [(1, 3), (2, 3), (4, 2), (7, 3)].map(|(run, lag)| (run, lag, lag));
    let jittered = [1, 2, 4, 7].map(|run| (run, 2, 5));
    for (run_ticks, lag, max) in fixed.into_iter().chain(jittered) {
        let latency = if lag == max {
            Latency::Fixed(lag)
        } else {
            Latency::UniformRounds { min: lag, max }
        };
        let config = RuntimeConfig::default()
            .with_workers(3)
            .with_seed(run_ticks * 31 + max)
            .with_channel(ChannelConfig::reliable().with_latency(latency));
        assert_eq!(effective_lag(&config), lag, "the lag window must be real");
        let mut rt = Runtime::spawn(config, relay_procs(9));
        rt.run_ticks(run_ticks);
        let out = rt.shutdown();
        let sent = out.ledger.sent;
        let delivered = out.ledger.delivered;
        let dropped = out.ledger.dropped_shutdown;
        assert_eq!(sent, 9 * run_ticks.min(5), "run={run_ticks}");
        assert_eq!(
            delivered + dropped,
            sent,
            "run={run_ticks} lag={lag}: every envelope exactly once"
        );
        if run_ticks < lag {
            assert_eq!(dropped, sent, "run={run_ticks}: nothing fell due yet");
        }
        let received: u64 = out.processes.iter().map(|p| p.received.len() as u64).sum();
        assert_eq!(received, delivered, "processes agree with the counters");
    }
}

#[test]
fn lossy_channel_drops_and_still_quiesces() {
    let config = RuntimeConfig::default()
        .with_workers(2)
        .with_seed(9)
        .with_channel(ChannelConfig::reliable().with_success_probability(0.5));
    let mut rt = Runtime::spawn(config, relay_procs(10));
    let executed = rt.run_until_quiescent(64);
    assert!(executed < 64);
    let out = rt.shutdown();
    let sent = out.ledger.sent;
    let delivered = out.ledger.delivered;
    let dropped = out.ledger.dropped_channel;
    assert_eq!(sent, 50);
    assert_eq!(delivered + dropped, sent, "every send is accounted");
    assert!(
        (10..40).contains(&dropped),
        "dropped {dropped} of {sent}, expected ≈ half"
    );
}

/// A latency floor above one tick opens a real drift window: the
/// delivered outcome must not depend on whether workers use it. One
/// worker cannot drift at all; four may run two ticks apart.
#[test]
fn outcome_is_stable_across_lag_windows() {
    let run = |workers: usize| {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(5)
            .with_channel(
                ChannelConfig::reliable()
                    .with_success_probability(0.8)
                    .with_latency(Latency::UniformRounds { min: 2, max: 4 }),
            );
        let mut rt = Runtime::spawn(config, relay_procs(12));
        rt.run_until_quiescent(64);
        let out = rt.shutdown();
        let mut receipts: Vec<Vec<u64>> = out
            .processes
            .into_iter()
            .map(|p| {
                let mut r = p.received;
                r.sort_unstable();
                r
            })
            .collect();
        receipts.sort();
        (receipts, out.ledger)
    };
    // Fates are per-edge and receipt ticks are due-tick-exact, so
    // the entire observable outcome is drift-invariant.
    assert_eq!(run(1), run(4));
}

#[test]
#[should_panic(expected = "failed to ack tick")]
fn watchdog_panics_instead_of_hanging() {
    struct Wedge;
    impl ExecProtocol for Wedge {
        type Msg = ();
        fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), _c: &mut X) {}
        fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, _ctx: &mut X) {
            if round == 0 {
                // Simulate a wedged protocol callback, far beyond the
                // watchdog (the sleep also bounds how long the leaked
                // worker outlives the panic).
                std::thread::sleep(Duration::from_secs(5));
            }
        }
    }
    let mut rt = Runtime::spawn(
        RuntimeConfig::default()
            .with_workers(1)
            .with_tick_timeout_ms(50),
        vec![Wedge],
    );
    // Must panic promptly — and the unwinding Drop must NOT block on
    // joining the wedged worker (that would hang this test).
    rt.step_tick();
}

/// A worker that panics out of a protocol hook must be diagnosed
/// promptly (the join handle is the only death signal left — no
/// per-tick coordinator→worker send exists to fail fast), not after
/// sitting out the full tick watchdog.
#[test]
#[should_panic(expected = "died before acking tick")]
fn dead_worker_is_diagnosed_promptly() {
    struct Bomb;
    impl ExecProtocol for Bomb {
        type Msg = ();
        fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), _c: &mut X) {}
        fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, ctx: &mut X) {
            if round == 1 && ctx.me() == ProcessId(0) {
                panic!("protocol bug");
            }
        }
    }
    // The watchdog is far out (5 s): only the prompt death check can
    // produce the expected panic; a regression to timeout-only
    // detection fails this test on the message after 5 s.
    let mut rt = Runtime::spawn(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tick_timeout_ms(5_000),
        vec![Bomb, Bomb],
    );
    rt.run_ticks(2);
}

#[test]
fn per_process_rng_streams_follow_the_seed() {
    use rand::Rng as _;
    struct Draw {
        value: u64,
    }
    impl ExecProtocol for Draw {
        type Msg = ();
        fn on_message<X: Exec<Msg = ()>>(&mut self, _f: ProcessId, _m: (), _c: &mut X) {}
        fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, ctx: &mut X) {
            if round == 0 {
                self.value = ctx.rng().gen();
            }
        }
    }
    let run = |workers: usize| {
        let procs = (0..9).map(|_| Draw { value: 0 }).collect();
        let mut rt = Runtime::spawn(
            RuntimeConfig::default().with_workers(workers).with_seed(42),
            procs,
        );
        rt.run_ticks(1);
        let out = rt.shutdown();
        out.processes.iter().map(|d| d.value).collect::<Vec<u64>>()
    };
    // The stream belongs to the process, not the worker: regrouping
    // the pool must not change the first draw of any process.
    assert_eq!(run(2), run(4));
}

/// Stillborn processes are applied at spawn: they never run
/// `on_start`, never execute a round — and the crashed set is the
/// plan's, identical to the simulator's.
#[test]
fn stillborn_processes_never_start() {
    use da_core::failure::FailureModel;
    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_seed(5)
        .with_failures(FailureModel::Stillborn {
            alive_fraction: 0.5,
        });
    let plan = FailureModel::Stillborn {
        alive_fraction: 0.5,
    }
    .materialize(10, 5);
    let mut rt = Runtime::spawn(config, (0..10).map(|_| LifeProbe::default()).collect());
    rt.run_ticks(5);
    let out = rt.shutdown();
    for (i, p) in out.processes.iter().enumerate() {
        let crashed = plan.is_initially_crashed(ProcessId::from_index(i));
        assert_eq!(p.started, !crashed, "process {i} started");
        assert_eq!(p.rounds.is_empty(), crashed, "process {i} rounds");
        assert_eq!(out.statuses[i].is_alive(), !crashed);
    }
    assert_eq!(out.ledger.dropped_crashed, 0);
}

/// Mid-flight crash accounting is exact: envelopes owed to a crashed
/// process drain to `dropped_crashed`, quiescence is still reached,
/// and every envelope ends delivered, `dropped_crashed` or
/// `dropped_shutdown`.
#[test]
fn crashed_inbox_drains_to_dropped_crashed() {
    use da_core::failure::{FailureModel, Fate};
    for (workers, latency) in [(2, 1), (3, 3)] {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(3)
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(latency)))
            .with_failures(FailureModel::Schedule(vec![Fate {
                round: 2,
                pid: ProcessId(1),
                crash: true,
            }]));
        let mut rt = Runtime::spawn(config, relay_procs(6));
        let executed = rt.run_until_quiescent(64);
        assert!(executed < 64, "crashed receivers must not wedge the run");
        let out = rt.shutdown();
        let sent = out.ledger.sent;
        let delivered = out.ledger.delivered;
        let dropped_crashed = out.ledger.dropped_crashed;
        let dropped_shutdown = out.ledger.dropped_shutdown;
        // p1 crashes at tick 2, so it only sends in ticks 0 and 1:
        // 5 x 5 + 2 sends in total.
        assert_eq!(sent, 27, "crashed processes stop sending");
        assert!(
            dropped_crashed > 0,
            "p1's inbox must drain to dropped_crashed"
        );
        assert_eq!(
            delivered + dropped_crashed + dropped_shutdown,
            sent,
            "workers={workers} lag={latency}: every envelope exactly once"
        );
        assert!(!out.statuses[1].is_alive());
        let received: u64 = out.processes.iter().map(|p| p.received.len() as u64).sum();
        assert_eq!(received, delivered);
    }
}

/// Satellite requirement: with a partition window, loss, latency,
/// and a mid-run crash all active at once, the envelope ledger is
/// exact at a lag window of 1 and of 4 — every send ends delivered or
/// dropped for one reason, none in flight. Partition drops happen at
/// send time (they never
/// enter flight), so the coordinator's in-flight ledger needs no
/// special case.
#[test]
fn partition_accounting_is_exact_across_lag_windows() {
    use da_core::failure::{FailureModel, Fate};
    use da_core::network::{Partition, PartitionSchedule};
    for (workers, latency) in [(2, 1), (3, 4)] {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(3)
            .with_channel(
                ChannelConfig::reliable()
                    .with_success_probability(0.7)
                    .with_latency(Latency::Fixed(latency)),
            )
            // Ring 0→1→…→5→0 with pids 3..6 on the island: the 2→3
            // and 5→0 hops cross the cut.
            .with_partitions(
                PartitionSchedule::none()
                    .with_partition(Partition::cut((3..6).map(ProcessId), 1).heal_at(3)),
            )
            .with_failures(FailureModel::Schedule(vec![Fate {
                round: 2,
                pid: ProcessId(1),
                crash: true,
            }]));
        let mut rt = Runtime::spawn(config, relay_procs(6));
        let executed = rt.run_until_quiescent(64);
        assert!(executed < 64, "partitions must not wedge the run");
        let out = rt.shutdown();
        assert!(
            out.ledger.dropped_partitioned > 0,
            "the cross-island hops at ticks 1..3 must be severed"
        );
        assert_eq!(
            out.ledger.in_flight(),
            Some(0),
            "workers={workers} lag={latency}: every envelope exactly once"
        );
        let received: u64 = out.processes.iter().map(|p| p.received.len() as u64).sum();
        assert_eq!(received, out.ledger.delivered);
    }
}

/// The per-observer model (paper Fig. 11) live: every transmission
/// independently observes its target as failed with probability
/// `1 - alive_fraction`, nobody is globally crashed, and the
/// envelope accounting stays exact.
#[test]
fn per_observer_drops_fraction_live() {
    use da_core::failure::FailureModel;
    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_seed(13)
        .with_failures(FailureModel::PerObserver {
            alive_fraction: 0.7,
        });
    let mut rt = Runtime::spawn(config, relay_procs(10));
    let executed = rt.run_until_quiescent(64);
    assert!(executed < 64);
    let out = rt.shutdown();
    let sent = out.ledger.sent;
    let delivered = out.ledger.delivered;
    let observed = out.ledger.dropped_observed;
    assert_eq!(sent, 50, "10 senders x ticks 0..5");
    assert_eq!(delivered + observed, sent, "every envelope accounted");
    assert!(
        (5..25).contains(&observed),
        "observer drops {observed}/{sent}, expected ≈ 15"
    );
    // Nobody is actually crashed in this model.
    assert!(out.statuses.iter().all(|s| s.is_alive()));
    assert_eq!(out.ledger.dropped_crashed, 0);
}

/// Channel fates key off the edge, not the worker: the multiset of
/// per-process loss counts is identical however the pool is striped.
#[test]
fn channel_fates_are_stripe_independent() {
    let run = |workers: usize| {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(7)
            .with_channel(ChannelConfig::reliable().with_success_probability(0.6));
        let mut rt = Runtime::spawn(config, relay_procs(12));
        rt.run_until_quiescent(64);
        let out = rt.shutdown();
        out.ledger
    };
    // The relay's send pattern is deterministic (next-pid ring), so
    // per-edge draws — and with them the global loss totals — must
    // not move when the worker count changes.
    assert_eq!(run(1), run(4));
}

#[test]
fn tracing_is_off_by_default() {
    let mut rt = relay_runtime(6, 2);
    rt.run_ticks(2);
    assert!(rt.trace_log().is_none());
    assert!(rt.shutdown().trace.is_none());
}

/// How many of the log's events carry `verdict`.
fn verdicts(log: &TraceLog, verdict: TraceVerdict) -> u64 {
    log.events.iter().filter(|e| e.verdict == verdict).count() as u64
}

/// An uncapped full trace holds one event per envelope verdict the
/// ledger counts, all six of them: a lossy channel, a partition, churn
/// and per-observer failures each supply one of the drops. The latency
/// histogram saw every delivery.
#[test]
fn full_trace_mirrors_the_counters() {
    use da_core::failure::FailureModel;
    use da_core::network::{Partition, PartitionSchedule};
    use TraceVerdict::*;
    let config = RuntimeConfig::default()
        .with_workers(2)
        .with_seed(9)
        .with_trace(TraceConfig::full());
    let cut = Partition::cut([ProcessId(2)], 1).heal_at(4);
    let churn = FailureModel::Churn {
        crash_probability: 0.15,
        recover_probability: 0.3,
    };
    let cases = [
        (
            config
                .clone()
                .with_channel(ChannelConfig::reliable().with_success_probability(0.6)),
            DroppedChannel,
        ),
        (
            config
                .clone()
                .with_partitions(PartitionSchedule::none().with_partition(cut)),
            DroppedPartitioned,
        ),
        (config.clone().with_failures(churn), DroppedCrashed),
        (
            config.with_failures(FailureModel::PerObserver {
                alive_fraction: 0.5,
            }),
            DroppedObserved,
        ),
    ];
    for (config, drop) in cases {
        let mut rt = Runtime::spawn(config, relay_procs(10));
        rt.run_until_quiescent(64);
        let out = rt.shutdown();
        let log = out.trace.expect("tracing was on");
        for verdict in [Sent, Delivered, DroppedChannel].into_iter().chain([
            DroppedPartitioned,
            DroppedCrashed,
            DroppedObserved,
        ]) {
            let traced = Some(verdicts(&log, verdict));
            assert_eq!(traced, out.ledger.count(verdict), "{drop} run: {verdict}");
        }
        assert!(out.ledger.count(drop) > Some(0), "the {drop} run dropped");
        assert_eq!(log.dropped_events, 0);
        let latency = log.histogram("delivery_latency_ticks").expect("histogram");
        assert_eq!(latency.count(), out.ledger.delivered);
        assert_eq!(latency.max(), 1, "the relay runs on latency-1 channels");
        assert!(log.histogram("wheel_occupancy").is_some());
        assert!(log.histogram("watermark_lag").is_some());
        let lane_depth = log.histogram("lane_depth").expect("histogram");
        assert!(
            lane_depth.count() > 0,
            "every executed tick samples the lanes swept"
        );
    }
}

#[test]
fn counters_only_keeps_the_ledger_without_events() {
    let config = RuntimeConfig::default()
        .with_workers(2)
        .with_seed(1)
        .with_trace(TraceConfig::counters_only());
    let mut rt = Runtime::spawn(config, relay_procs(6));
    rt.run_until_quiescent(64);
    let out = rt.shutdown();
    let log = out.trace.expect("tracing was on");
    assert!(log.events.is_empty(), "counters-only buffers nothing");
    assert_eq!(out.ledger.sent, 30);
    assert_eq!(out.ledger.delivered, 30);
}

/// Lifecycle events land in the stream: one `crashed` per downward
/// transition, one `recovered` per upward one, self-edged, matching
/// the churn counters.
#[test]
fn lifecycle_events_match_churn_counters() {
    use da_core::failure::FailureModel;
    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_seed(11)
        .with_failures(FailureModel::Churn {
            crash_probability: 0.15,
            recover_probability: 0.3,
        })
        .with_trace(TraceConfig::full());
    let mut rt = Runtime::spawn(config, (0..12).map(|_| LifeProbe::default()).collect());
    rt.run_ticks(40);
    let out = rt.shutdown();
    let log = out.trace.expect("tracing was on");
    assert_eq!(
        verdicts(&log, TraceVerdict::Crashed),
        out.ledger.churn_crashes,
        "churn is the only crash source here"
    );
    assert_eq!(
        verdicts(&log, TraceVerdict::Recovered),
        out.ledger.churn_recoveries
    );
    assert!(
        verdicts(&log, TraceVerdict::Crashed) > 0,
        "the run saw churn"
    );
    for e in log
        .events
        .iter()
        .filter(|e| e.verdict == TraceVerdict::Crashed)
    {
        assert_eq!(e.from, e.to, "lifecycle events are self-edged");
        assert_eq!(e.payload, 0);
    }
}

/// The canonical trace stream is a worker-count invariant: loss,
/// latency, and churn draws all key off (edge, tick) or (pid, tick),
/// so regrouping the pool permutes only the within-tick interleaving
/// that canonicalization erases.
///
/// The scenario also pins `quiescence_never_overshoots` under churn
/// (it was PR 15's flake): mail consumed at its due tick as
/// `dropped_crashed` is neither delivered nor pending, so a
/// non-zero in-flight ledger must not grant the tick after — no tick
/// at or past the returned count may run even its lifecycle step.
#[test]
fn canonical_trace_is_worker_count_invariant() {
    use da_core::failure::FailureModel;
    let run = |workers: usize| {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(7)
            .with_channel(
                ChannelConfig::reliable()
                    .with_success_probability(0.7)
                    .with_latency(Latency::UniformRounds { min: 1, max: 3 }),
            )
            .with_failures(FailureModel::Churn {
                crash_probability: 0.1,
                recover_probability: 0.4,
            })
            .with_trace(TraceConfig::full());
        let mut rt = Runtime::spawn(config, relay_procs(12));
        let executed = rt.run_until_quiescent(64);
        let out = rt.shutdown();
        assert!(out.ledger.dropped_crashed > 0);
        let events = out.trace.expect("tracing was on").canonical_events();
        let late: Vec<_> = events.iter().filter(|e| e.tick >= executed).collect();
        assert!(late.is_empty(), "{workers} workers ran on: {late:?}");
        events
    };
    let single = run(1);
    assert!(!single.is_empty());
    assert_eq!(single, run(3));
    assert_eq!(single, run(4));
}

/// What a run leaves behind, reduced to what is deterministic per seed:
/// the processes' receipts and liveness, the counters, and of the trace
/// the canonical events, the dropped count and delivery latencies (the
/// pool's own histograms sample timing).
fn digest(out: &Shutdown<Relay>) -> impl PartialEq + std::fmt::Debug {
    let trace = out.trace.as_ref().expect("tracing is on");
    (
        out.processes
            .iter()
            .map(|p| p.received.clone())
            .collect::<Vec<_>>(),
        out.statuses.clone(),
        out.counters.to_string(),
        trace.canonical_events(),
        trace.dropped_events,
        trace.histogram("delivery_latency_ticks").cloned(),
    )
}

/// `ledger()`, `tally()`, `counters()` and `trace_log()` between driver
/// calls read exactly what `shutdown` would hand back, add up across
/// ticks, and change nothing: a run read mid-way ends as one that never
/// was. The counters carry the ledger and the tally under the pool's
/// rendered names.
#[test]
fn reads_between_driver_calls_are_exact_cumulative_and_inert() {
    for workers in [1, 3] {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(3)
            .with_channel(
                ChannelConfig::reliable()
                    .with_success_probability(0.7)
                    .with_latency(Latency::UniformRounds { min: 1, max: 3 }),
            )
            .with_trace(TraceConfig::full());
        let mut read = Runtime::spawn(config.clone(), relay_procs(9));
        read.run_ticks(2);
        let (early, early_log) = (read.counters(), read.trace_log().unwrap());
        let (early_ledger, early_tally) = (read.ledger(), read.tally());
        read.run_ticks(2);
        let (late, late_log) = (read.counters(), read.trace_log().unwrap());
        for (name, value) in early.iter() {
            assert!(late.get(name) >= value, "{workers} workers: {name}");
        }
        assert!(read.ledger().sent > early_ledger.sent);
        let late_tally = read.tally();
        for group in 0..2 {
            let delivered = |tally: &Tally| tally.get(Family::Da, Kind::Delivered, group);
            assert!(
                delivered(&late_tally) > delivered(&early_tally),
                "{workers} workers"
            );
        }
        let delivered = |tally: &Tally| tally.total(Family::Da, Kind::Delivered);
        assert!(delivered(&late_tally) > delivered(&early_tally));
        let old: Vec<_> = late_log
            .canonical_events()
            .into_iter()
            .filter(|e| e.tick < 2)
            .collect();
        assert_eq!(old, early_log.canonical_events(), "{workers} workers");
        read.run_until_quiescent(64);
        let (last, last_log) = (read.counters(), read.trace_log().unwrap());
        let (last_ledger, last_tally) = (read.ledger(), read.tally());
        let out = read.shutdown();
        assert_eq!(out.ledger, last_ledger);
        assert_eq!(out.tally, last_tally);
        assert_eq!(delivered(&last_tally), last_ledger.delivered);
        assert_eq!(out.counters.to_string(), last.to_string());
        let mut rendered = Counters::new();
        Renderer::default().render(Registry::Pool, &last_ledger, &last_tally, &mut rendered);
        assert_eq!(
            rendered.len(),
            13,
            "the ledger's 11 names, a delivery cell per parity"
        );
        assert!(rendered.iter().all(|(name, n)| last.get(name) == n));
        let trace = out.trace.as_ref().unwrap();
        assert_eq!(trace.events, last_log.events);
        assert_eq!(trace.dropped_events, last_log.dropped_events);
        assert_eq!(trace.histograms, last_log.histograms);

        let mut unread = Runtime::spawn(config, relay_procs(9));
        unread.run_ticks(2);
        unread.run_ticks(2);
        unread.run_until_quiescent(64);
        assert_eq!(
            digest(&unread.shutdown()),
            digest(&out),
            "{workers} workers"
        );
    }
}

/// A read from a pool whose worker died panics with the worker named —
/// within one death poll, not after the watchdog — instead of folding a
/// stale or partial view.
#[test]
#[should_panic(expected = "runtime worker 1 died before answering a read")]
fn a_read_names_a_dead_worker() {
    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_tick_timeout_ms(5_000);
    let mut rt = Runtime::spawn(config, relay_procs(6));
    rt.run_ticks(1);
    inject(&rt, ProcessId(4), |_| panic!("killed by the test"));
    let _ = rt.counters();
}

/// A worker that does not answer a read within the tick timeout is
/// named, not waited on for ever.
#[test]
#[should_panic(expected = "runtime worker 2 failed to answer a read")]
fn a_read_names_a_wedged_worker() {
    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_tick_timeout_ms(50)
        .with_trace(TraceConfig::counters_only());
    let mut rt = Runtime::spawn(config, relay_procs(6));
    rt.run_ticks(1);
    // Far beyond the watchdog; the sleep also bounds how long the
    // leaked worker outlives the panic.
    inject(&rt, ProcessId(5), |_| {
        std::thread::sleep(Duration::from_secs(2))
    });
    let _ = rt.trace_log();
}

/// An apply whose worker is wedged names the worker after the tick
/// timeout instead of waiting for it for ever.
#[test]
#[should_panic(expected = "runtime worker 2 failed to answer an apply")]
fn an_apply_names_a_wedged_worker() {
    let config = RuntimeConfig::default()
        .with_workers(3)
        .with_tick_timeout_ms(50);
    let mut rt = Runtime::spawn(config, relay_procs(6));
    rt.run_ticks(1);
    // Far beyond the watchdog; the sleep also bounds how long the
    // leaked worker outlives the panic.
    inject(&rt, ProcessId(5), |_| {
        std::thread::sleep(Duration::from_secs(2))
    });
    rt.with_process_mut(ProcessId(2), |p| p.received.len());
}

/// A relay whose every hook sends on one edge twice: `on_round` sends
/// two tokens to its ring successor and one to a stride-5 peer in
/// ticks `0..6`, and each receipt of a token that has made fewer than
/// two hops is forwarded twice to the stride-3 peer. Every receipt is
/// kept in delivery order as `(from, token, tick)`, where a token packs
/// `origin tick << 8 | copy << 4 | hop`.
struct Echo {
    population: u32,
    received: Vec<(u32, u64, u64)>,
}

impl ExecProtocol for Echo {
    type Msg = u64;

    fn on_message<X: Exec<Msg = u64>>(&mut self, from: ProcessId, token: u64, ctx: &mut X) {
        self.received.push((from.0, token, ctx.round()));
        let hop = token & 0xf;
        if hop < 2 {
            let to = ProcessId((ctx.me().0 + 3) % self.population);
            for copy in 0..2 {
                ctx.send(to, (token & !0xff) | copy << 4 | (hop + 1));
            }
        }
    }

    fn on_round<X: Exec<Msg = u64>>(&mut self, round: u64, ctx: &mut X) {
        if round < 6 {
            let me = ctx.me().0;
            let next = ProcessId((me + 1) % self.population);
            ctx.send(next, round << 8);
            ctx.send(next, round << 8 | 1 << 4);
            ctx.send(
                ProcessId((me * 5 + 2) % self.population),
                round << 8 | 2 << 4,
            );
        }
    }
}

/// The pool's delivery *order*, not only its delivered set: a digest of
/// every process's receipts in the order they were delivered, pinned
/// per latency model and worker count on a 10%-loss channel. Within a
/// tick a process receives from producer workers in worker-id order,
/// and from one producer in send order; moving where envelopes wait
/// between send and delivery must leave this sequence alone. The pool
/// sizes differ on purpose (one producer lane, two, three) and so do
/// the models: a one-tick floor, a jittered floor of one and one of
/// two, where senders run ahead of their receivers.
#[test]
fn ordered_receipts_match_their_pinned_digests() {
    use std::hash::Hasher as _;
    let pinned = [
        (
            Latency::UniformRounds { min: 1, max: 3 },
            [
                0x37e2_0f0a_ae4b_ccc2,
                0x3cb7_4647_de07_fb1b,
                0x20b4_3d02_90c7_ae9a,
            ],
        ),
        (
            Latency::UniformRounds { min: 2, max: 4 },
            [
                0x1d43_61d4_7fbd_3935,
                0x2ae4_187f_30d0_6bde,
                0xe82e_b2e3_f653_b7f2,
            ],
        ),
        (
            Latency::Fixed(1),
            [
                0xd484_4aab_a934_c7f9,
                0x687d_d9fd_7df2_bbcd,
                0x3f0c_03ad_8661_d04f,
            ],
        ),
    ];
    for (latency, digests) in pinned {
        for (workers, want) in (1..=3).zip(digests) {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_seed(23)
                .with_channel(
                    ChannelConfig::reliable()
                        .with_success_probability(0.9)
                        .with_latency(latency),
                );
            let procs = (0..12)
                .map(|_| Echo {
                    population: 12,
                    received: Vec::new(),
                })
                .collect();
            let mut rt = Runtime::spawn(config, procs);
            assert!(rt.run_until_quiescent(64) < 64, "{latency:?}: quiesces");
            let out = rt.shutdown();
            let mut digest = da_core::FxHasher::default();
            for (pid, p) in out.processes.iter().enumerate() {
                digest.write_usize(pid);
                for &(from, token, tick) in &p.received {
                    digest.write_u32(from);
                    digest.write_u64(token);
                    digest.write_u64(tick);
                }
            }
            assert_eq!(digest.finish(), want, "{latency:?} on {workers} workers");
        }
    }
}
