//! Layer probes: fixed-count loops over each module's *public*
//! functions, host-normalised like the ops, run after the traced ops.
//!
//! Each probe isolates one rung of the per-layer ladder (a fate draw, a
//! lane hop, a lifecycle scan, a protocol callback with no substrate
//! under it …) so that a later change can name the rung it moves and
//! the end-to-end metric that should follow (see README.md for the
//! rung → metric → workload table). Iteration counts are frozen and
//! sized for at least 0.2 s per probe on the reference host.

use crate::alloc;
use crate::calib::Calibrator;
use crate::report::Rows;
use crate::stats::{median, ratio};
use crate::workloads::{
    self, leaf_members, metro_channel, metro_churn_model, wave_network, LiveWave, LIVE_WAVE,
};
use crossbeam::queue;
use da_core::channel::{ChannelConfig, EdgeRngs};
use da_core::failure::FailureModel;
use da_core::seed::{rng_for_process, rng_from_seed};
use da_core::store::ProcessStore;
use da_core::trace::TraceConfig;
use da_core::ProcessId;
use da_membership::PartialView;
use da_runtime::{
    lane_matrix, EdgeWatermarks, Envelope, FaultyRouter, LifecycleController, Runtime,
    RuntimeConfig, ShardedCounters,
};
use da_simnet::Counters;
use da_topics::TopicHierarchy;
use damulticast::{metro_population, DaProcess, Exec, ExecProtocol, MetroMsg, MetroProcess};
use rand::rngs::SmallRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs timed batches, each normalised by a host factor taken right
/// before it.
struct Prober<'a> {
    cal: &'a mut Calibrator,
    /// Iteration counts are divided by this (1 normally; the smoke pass
    /// only checks that every probe runs).
    shrink: u64,
}

impl Prober<'_> {
    fn count(&self, n: u64) -> u64 {
        (n / self.shrink).max(1)
    }

    /// Normalised nanoseconds per unit of a batch doing `units` units.
    fn ns_per(&mut self, units: u64, batch: impl FnOnce()) -> f64 {
        let host_factor = self.cal.host_factor();
        let start = Instant::now();
        batch();
        start.elapsed().as_secs_f64() * 1e9 / host_factor / units as f64
    }
}

/// A substrate-free execution context: sends land in a plain `Vec`,
/// metrics go nowhere. What is left when a protocol hook runs under it
/// is the protocol's own time.
struct NullExec<'a, M> {
    me: ProcessId,
    round: u64,
    rng: &'a mut SmallRng,
    out: &'a mut Vec<(ProcessId, ProcessId, M)>,
}

impl<M> Exec for NullExec<'_, M> {
    type Msg = M;

    fn me(&self) -> ProcessId {
        self.me
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn send(&mut self, to: ProcessId, msg: M) {
        self.out.push((self.me, to, msg));
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn bump(&mut self, _label: &str) {}

    fn add(&mut self, _label: &str, _delta: u64) {}
}

/// A population under the null context: hooks are called directly, and
/// a wave is replayed breadth first over a lossless, substrate-free
/// queue — the recorded message sample *is* the protocol's own output.
struct NullNet<P: ExecProtocol> {
    procs: Vec<P>,
    rngs: Vec<SmallRng>,
    now: Vec<(ProcessId, ProcessId, P::Msg)>,
    next: Vec<(ProcessId, ProcessId, P::Msg)>,
    round: u64,
}

impl<P: ExecProtocol> NullNet<P> {
    fn new(procs: Vec<P>, seed: u64) -> Self {
        let rngs = (0..procs.len())
            .map(|i| rng_for_process(seed, ProcessId::from_index(i)))
            .collect();
        NullNet {
            procs,
            rngs,
            now: Vec::new(),
            next: Vec::new(),
            round: 0,
        }
    }

    fn hook(&mut self, pid: ProcessId, f: impl FnOnce(&mut P, &mut NullExec<'_, P::Msg>)) {
        let mut ctx = NullExec {
            me: pid,
            round: self.round,
            rng: &mut self.rngs[pid.index()],
            out: &mut self.next,
        };
        f(&mut self.procs[pid.index()], &mut ctx);
    }

    /// Delivers queued messages round by round until none are left;
    /// returns `(messages delivered, seconds inside on_message)`.
    fn drain(&mut self) -> (u64, f64) {
        let mut delivered = 0u64;
        let mut busy = 0.0f64;
        while !self.next.is_empty() {
            std::mem::swap(&mut self.now, &mut self.next);
            self.round += 1;
            let batch = std::mem::take(&mut self.now);
            delivered += batch.len() as u64;
            let start = Instant::now();
            for (from, to, msg) in batch {
                self.hook(to, |p, ctx| p.on_message(from, msg, ctx));
            }
            busy += start.elapsed().as_secs_f64();
        }
        (delivered, busy)
    }
}

/// Envelopes per simulated tick in the transport probes.
const TICK_BATCH: usize = 64;

/// `FaultyRouter::send` × 64 + `flush` + consumer drain per tick, over
/// a two-worker lane matrix. Returns `(ns per envelope, mean batch
/// length, buffers minted after warm-up)`.
fn router_probe(p: &mut Prober<'_>, channel: ChannelConfig, ticks: u64) -> (f64, f64, u64) {
    let (mut hubs, mut inboxes) = lane_matrix::<MetroMsg>(2, 8);
    let hub = hubs.remove(0);
    let mut router = FaultyRouter::new(hub, channel, 1);
    let msg = MetroMsg {
        headline: 1,
        hops: 9,
    };
    let mut tick = 0u64;
    let mut pump = |router: &mut FaultyRouter<MetroMsg>, ticks: u64| {
        let (mut batches, mut envelopes) = (0u64, 0u64);
        for _ in 0..ticks {
            for i in 0..TICK_BATCH as u32 {
                let _ = router.send(ProcessId(i), ProcessId(i * 7 + 1), tick, msg);
            }
            let report = router.flush();
            batches += report.batches;
            envelopes += report.envelopes;
            for inbox in &mut inboxes {
                black_box(inbox.drain());
            }
            tick += 1;
        }
        (batches, envelopes)
    };
    pump(&mut router, 64); // warm-up: the pool reaches its working set
    let minted_warm = router.hub().pool().minted();
    let ticks = p.count(ticks);
    let mut flushed = (0, 0);
    let ns = p.ns_per(ticks * TICK_BATCH as u64, || {
        flushed = pump(&mut router, ticks);
    });
    let minted_after = router.hub().pool().minted() - minted_warm;
    (ns, ratio(flushed.1 as f64, flushed.0 as f64), minted_after)
}

fn transport(p: &mut Prober<'_>, rows: &mut Rows, complaints: &mut Vec<String>) {
    // One SPSC lane hop: `Hub::send` on the producer side, a consumer
    // `drain`, 64 envelopes at a time.
    let (mut hubs, mut inboxes) = lane_matrix::<MetroMsg>(2, TICK_BATCH + 1);
    let mut hub = hubs.remove(0);
    let rounds = p.count(60_000);
    let ns = p.ns_per(rounds * TICK_BATCH as u64, || {
        for round in 0..rounds {
            for i in 0..TICK_BATCH as u32 {
                let env = Envelope {
                    from: ProcessId(0),
                    to: ProcessId(2 * i + 1),
                    sent_tick: round,
                    due_tick: round + 1,
                    msg: MetroMsg {
                        headline: 0,
                        hops: 1,
                    },
                };
                hub.send(env).expect("probe lanes stay open");
            }
            black_box(inboxes[1].drain());
        }
    });
    rows.push(("transport.lane_push_pop_ns", ns));

    let (ns, batch_len, minted) = router_probe(p, metro_channel(), 50_000);
    rows.push(("transport.router_send_ns", ns));
    rows.push(("transport.batch_len_mean", batch_len));
    rows.push(("transport.pool_minted", minted as f64));
    if minted != 0 {
        complaints.push(format!(
            "BatchPool minted {minted} buffers after warm-up (must stay flat)"
        ));
    }
    let (ns, _, minted) = router_probe(p, ChannelConfig::reliable(), 80_000);
    rows.push(("transport.router_send_perfect_ns", ns));
    if minted != 0 {
        complaints.push(format!(
            "BatchPool minted {minted} buffers after warm-up on the perfect path"
        ));
    }

    let marks = EdgeWatermarks::new(2);
    let n = p.count(60_000_000);
    let ns = p.ns_per(n, || {
        for t in 0..n {
            marks.publish(black_box(0), t);
        }
    });
    rows.push(("transport.watermark_publish_ns", ns));
    let mut open = 0u64;
    let ns = p.ns_per(n, || {
        for t in 0..n {
            open += u64::from(marks.all_published(black_box(1), t));
        }
    });
    black_box(open);
    rows.push(("transport.watermark_check_ns", ns));
}

fn counters_and_metrics(p: &mut Prober<'_>, rows: &mut Rows) {
    // A registry the size of a metropolis worker's: the substrate's
    // eleven hot counters plus the protocol's labels.
    let mut local = Counters::new();
    for name in [
        "rt.sent",
        "rt.bytes_sent",
        "rt.delivered",
        "rt.dropped_channel",
        "rt.dropped_partitioned",
        "rt.dropped_closed",
        "rt.dropped_shutdown",
        "rt.dropped_crashed",
        "rt.dropped_observed_failed",
        "rt.churn_crashes",
        "rt.churn_recoveries",
        "metro.duplicate",
    ] {
        local.register(name);
    }
    let id = local.register("metro.first_delivery");
    let n = p.count(200_000_000);
    let ns = p.ns_per(n, || {
        for _ in 0..n {
            local.add(black_box(id), 1);
        }
    });
    rows.push(("simnet.counters_add_ns", ns));
    let n = p.count(12_000_000);
    let ns = p.ns_per(n, || {
        for _ in 0..n {
            local.bump(black_box("metro.first_delivery"));
        }
    });
    rows.push(("simnet.counters_bump_ns", ns));

    let sharded = ShardedCounters::new(2);
    sharded.publish(1, &local).expect("shard in range");
    let n = p.count(8_000_000);
    let ns = p.ns_per(n, || {
        for _ in 0..n {
            sharded.publish(0, &local).expect("shard in range");
        }
    });
    rows.push(("metrics.shard_publish_ns", ns));
    let n = p.count(300_000);
    let ns = p.ns_per(n, || {
        for _ in 0..n {
            black_box(sharded.merged());
        }
    });
    rows.push(("metrics.merged_us", ns / 1e3));
}

fn core_layer(p: &mut Prober<'_>, rows: &mut Rows) {
    let rngs = EdgeRngs::new(7);
    let lossy = metro_channel();
    let n = p.count(6_000_000);
    let ns = p.ns_per(n, || {
        for i in 0..n {
            let mut rng = rngs.draw_rng(i & 0xFFFF, (i >> 3) & 0xFFFF, i >> 16, i & 3);
            black_box(lossy.sample_fate(&mut rng));
        }
    });
    rows.push(("channel.fate_draw_ns", ns));
    let perfect = ChannelConfig::reliable();
    let mut rng = rng_from_seed(7);
    let n = p.count(200_000_000);
    let ns = p.ns_per(n, || {
        for _ in 0..n {
            black_box(black_box(&perfect).sample_fate(&mut rng));
        }
    });
    rows.push(("channel.fate_draw_perfect_ns", ns));

    const SLOTS: usize = 1_000_000;
    let plan = Arc::new(metro_churn_model().materialize(SLOTS, 7));
    let n = p.count(40_000_000);
    let mut flips = 0u64;
    let ns = p.ns_per(n, || {
        for i in 0..n {
            flips +=
                u64::from(plan.churn_flips(ProcessId((i % SLOTS as u64) as u32), i >> 20, true));
        }
    });
    rows.push(("failure.churn_flip_ns", ns));
    let ns = p.ns_per(n, || {
        for i in 0..n {
            let t = plan.transition(ProcessId((i % SLOTS as u64) as u32), i >> 20, true);
            flips += u64::from(t.churn_crashed);
        }
    });
    black_box(flips);
    rows.push(("failure.transition_ns", ns));

    // The lifecycle scan: one `begin_tick` visits every owned slot.
    let inert = Arc::new(FailureModel::None.materialize(SLOTS, 7));
    let mut idle = LifecycleController::new(inert, 0, 1, SLOTS);
    let ticks = p.count(20_000_000);
    let ns = p.ns_per(ticks * SLOTS as u64, || {
        for tick in 0..ticks {
            black_box(idle.begin_tick(tick));
        }
    });
    rows.push(("lifecycle.begin_tick_ns_per_proc_idle", ns));
    let mut churning = LifecycleController::new(plan, 0, 1, SLOTS);
    let ticks = p.count(50);
    let ns = p.ns_per(ticks * SLOTS as u64, || {
        for tick in 0..ticks {
            black_box(churning.begin_tick(tick));
        }
    });
    rows.push(("lifecycle.begin_tick_ns_per_proc_churn", ns));

    const STORE: usize = 65_536;
    let before = alloc::snapshot().live;
    let mut store = ProcessStore::with_capacity(7, STORE);
    for _ in 0..STORE {
        store.push(MetroProcess::new(STORE, 8));
    }
    let held = alloc::snapshot().live.saturating_sub(before);
    rows.push(("store.bytes_per_slot", held as f64 / STORE as f64));
    let sweep = |store: &mut ProcessStore<MetroProcess>| {
        for local in 0..STORE {
            black_box(store.pair_mut(local, ProcessId(local as u32)));
        }
    };
    sweep(&mut store); // materialise the lazy RNG slots once
    let sweeps = p.count(2_000);
    let ns = p.ns_per(sweeps * STORE as u64, || {
        for _ in 0..sweeps {
            sweep(&mut store);
        }
    });
    rows.push(("store.pair_mut_ns", ns));
}

fn protocol_layer(p: &mut Prober<'_>, rows: &mut Rows) {
    // daMulticast on the paper's topology, no substrate: publish from
    // rotating leaf members and replay each wave to its end.
    let net = wave_network(7);
    let leaf = leaf_members(&net);
    let mut da: NullNet<DaProcess> = NullNet::new(net.into_processes(), 7);
    let events = p.count(96) as usize;
    let host_factor = p.cal.host_factor();
    let (mut messages, mut on_message_s, mut publish_s) = (0u64, 0.0f64, 0.0f64);
    for e in 0..events {
        let publisher = leaf[e % leaf.len()];
        let round = da.round;
        let start = Instant::now();
        da.hook(publisher, |proc, ctx| {
            proc.publish("bench");
            proc.on_round(round, ctx);
        });
        publish_s += start.elapsed().as_secs_f64();
        let (n, busy) = da.drain();
        messages += n;
        on_message_s += busy;
    }
    rows.push((
        "protocol.on_message_ns",
        on_message_s * 1e9 / host_factor / messages.max(1) as f64,
    ));
    rows.push((
        "protocol.publish_ns",
        publish_s * 1e9 / host_factor / events as f64,
    ));
    let sweeps = p.count(3_000);
    let population = da.procs.len() as u64;
    let ns = p.ns_per(sweeps * population, || {
        for _ in 0..sweeps {
            for i in 0..population as usize {
                let round = da.round;
                da.hook(ProcessId::from_index(i), |proc, ctx| {
                    proc.on_round(round, ctx)
                });
            }
        }
    });
    rows.push(("protocol.on_round_ns", ns));

    // The metropolis flood, no substrate.
    let floods = p.count(6);
    let host_factor = p.cal.host_factor();
    let (mut messages, mut busy_s) = (0u64, 0.0f64);
    for flood in 0..floods {
        let mut metro: NullNet<MetroProcess> =
            NullNet::new(metro_population(16_384, 64, 254), flood);
        for i in 0..metro.procs.len() {
            metro.hook(ProcessId::from_index(i), |proc, ctx| proc.on_start(ctx));
        }
        let (n, busy) = metro.drain();
        messages += n;
        busy_s += busy;
    }
    rows.push((
        "metro.on_message_ns",
        busy_s * 1e9 / host_factor / messages.max(1) as f64,
    ));

    let mut rng = rng_from_seed(7);
    let mut view = PartialView::new(ProcessId(0), 24);
    for pid in 1..=24 {
        view.insert(ProcessId(pid), &mut rng);
    }
    let n = p.count(3_000_000);
    let ns = p.ns_per(n, || {
        for _ in 0..n {
            black_box(view.sample(black_box(3), &mut rng));
        }
    });
    rows.push(("membership.view_sample_ns", ns));

    let (hierarchy, ids) = TopicHierarchy::linear_chain(3);
    let n = p.count(60_000_000);
    let mut hits = 0u64;
    let ns = p.ns_per(n, || {
        for i in 0..n as usize {
            hits += u64::from(hierarchy.includes_or_eq(black_box(ids[i % 3]), ids[2]));
        }
    });
    black_box(hits);
    rows.push(("topics.includes_ns", ns));
}

fn shim_layer(p: &mut Prober<'_>, pair: &mut Calibrator, rows: &mut Rows) {
    let (mut tx, mut rx) = queue::spsc::<u64>(128);
    let rounds = p.count(600_000);
    let ns = p.ns_per(rounds * 64, || {
        for round in 0..rounds {
            for i in 0..64 {
                tx.push(round + i).expect("ring has room");
            }
            while let Some(v) = rx.pop() {
                black_box(v);
            }
        }
    });
    rows.push(("crossbeam.spsc_push_pop_ns", ns));

    // Two threads, one token bounced through two rings.
    let trips = p.count(400_000);
    let (mut ping_tx, mut ping_rx) = queue::spsc::<u64>(4);
    let (mut pong_tx, mut pong_rx) = queue::spsc::<u64>(4);
    let host_factor = pair.host_factor();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..trips {
                let v = loop {
                    if let Some(v) = ping_rx.pop() {
                        break v;
                    }
                    std::hint::spin_loop();
                };
                pong_tx.push(v).expect("ring has room");
            }
        });
        for trip in 0..trips {
            ping_tx.push(trip).expect("ring has room");
            loop {
                if let Some(v) = pong_rx.pop() {
                    black_box(v);
                    break;
                }
                std::hint::spin_loop();
            }
        }
    });
    let ns = start.elapsed().as_secs_f64() * 1e9 / host_factor / trips as f64;
    rows.push(("crossbeam.spsc_pingpong_ns", ns));
}

fn runtime_layer(p: &mut Prober<'_>, pair: &mut Calibrator, rows: &mut Rows) {
    // `with_process_mut` round trip on an idle two-worker pool.
    let config = RuntimeConfig::default().with_workers(2).with_seed(7);
    let citizens = (0..1024).map(|_| MetroProcess::new(1024, 0)).collect();
    let mut rt: Runtime<MetroProcess> = Runtime::spawn(config, citizens);
    let n = p.count(30_000);
    let host_factor = pair.host_factor();
    let start = Instant::now();
    for i in 0..n {
        black_box(rt.with_process_mut(ProcessId((i % 1024) as u32), |proc| proc.headlines_seen()));
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / host_factor / n as f64;
    drop(rt.shutdown());
    rows.push(("runtime.inject_us", us));

    // The flight recorder's price: the same live_wave ops with the
    // recorder off and capturing every envelope verdict.
    let ops = p.count(16) as usize;
    let mut norm = |trace: TraceConfig| {
        let data = workloads::run::<LiveWave>(&LIVE_WAVE, 7, ops, pair, trace, None);
        median(&data.ops.iter().map(|o| o.norm_ms()).collect::<Vec<_>>())
    };
    let off = norm(TraceConfig::off());
    let full = norm(TraceConfig::full());
    rows.push(("trace.recorder_full_overhead", ratio(full, off)));
}

/// A tick on a quiet pool of the workload's population and width: the
/// pure grant → report → watermark round trip, no protocol traffic.
pub fn idle_tick_us(spec: &workloads::Spec, cal: &mut Calibrator, ticks: u64) -> f64 {
    let config = RuntimeConfig::default()
        .with_workers(spec.workers)
        .with_seed(7);
    let citizens = (0..spec.population)
        .map(|_| MetroProcess::new(spec.population, 0))
        .collect();
    let mut rt: Runtime<MetroProcess> = Runtime::spawn(config, citizens);
    for _ in 0..4 {
        rt.step_tick();
    }
    let host_factor = cal.host_factor();
    let mut samples = Vec::with_capacity(ticks as usize);
    for _ in 0..ticks {
        let start = Instant::now();
        black_box(rt.step_tick());
        samples.push(start.elapsed().as_secs_f64() * 1e6 / host_factor);
    }
    drop(rt.shutdown());
    median(&samples)
}

/// Runs every standalone probe. `single` and `pair` are one- and
/// two-thread calibrators; `smoke` shrinks the iteration counts.
pub fn run_all(
    single: &mut Calibrator,
    pair: &mut Calibrator,
    smoke: bool,
    complaints: &mut Vec<String>,
) -> Rows {
    let mut rows = Rows::new();
    let mut p = Prober {
        cal: single,
        shrink: if smoke { 64 } else { 1 },
    };
    counters_and_metrics(&mut p, &mut rows);
    transport(&mut p, &mut rows, complaints);
    core_layer(&mut p, &mut rows);
    protocol_layer(&mut p, &mut rows);
    shim_layer(&mut p, pair, &mut rows);
    runtime_layer(&mut p, pair, &mut rows);
    rows
}
