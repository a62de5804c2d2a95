//! The in-memory transport: envelopes, per-tick batches, the lock-free
//! lane-matrix data plane ([`Hub`] / [`EdgeInbox`] / [`BatchPool`]), the
//! fault-injecting [`FaultyRouter`], and the [`EdgeWatermarks`] the
//! bounded-lag scheduler reads instead of a barrier.
//!
//! ## Data plane: the lane matrix
//!
//! A batch is a `Vec<Envelope<M>>` taken from a pool. Batches move over
//! a matrix of bounded lock-free SPSC rings (`crossbeam::queue`), one
//! *data lane* per (producer worker, consumer worker) pair plus one
//! *return lane* per pair flowing the other way:
//!
//! * [`Hub`] is worker `p`'s producer row: `send`/`send_batch` push onto
//!   the data lane addressed to the destination's worker — one `Release`
//!   store, no lock, no contention with any other producer. The hub also
//!   owns a [`BatchPool`] recycling the buffers that come back over
//!   the return lanes, so steady-state ticks allocate nothing.
//! * [`EdgeInbox`] is worker `c`'s consumer column:
//!   [`sweep`](EdgeInbox::sweep) drains every incoming lane once, **in
//!   producer worker-id order**, handing each envelope to the caller
//!   tagged with its producer lane; drained buffers go straight back
//!   to their owning producer's pool over the return lane. A worker
//!   takes whole batches instead (`take_batches`), keeps them until
//!   they fall due, and hands each back (`recycle`) once delivered.
//! * [`FaultyRouter`] layers the substrate-neutral network fault model
//!   (`da_core::network::NetworkModel`: one channel, partition
//!   schedule, scripted drops) on top of a
//!   hub: a send crossing an active partition cut is dropped outright (a
//!   pure decision — no randomness), a send matching a scripted drop for
//!   its per-tick occurrence on the edge is likewise dropped draw-free
//!   (this is how model-checker counterexamples replay on the live
//!   runtime), every other send's fate — lost, or delivered after a
//!   sampled latency — is drawn from a stateless RNG keyed by
//!   `(edge, tick, occurrence)` on the channel, and survivors are
//!   scheduled once, on the router's `da_core::wheel::DelayWheel`, whose
//!   lanes are the destination workers. A flush ships what falls due:
//!   the worker's flush of tick `t` hands over the buckets due at
//!   `t + lag`, each whole, so one tick costs at most one lane push per
//!   worker pair and the receiver delivers from the buffer the sender
//!   filled. What an imperfect send costs before its draw
//!   is one bump of a `da_core::Occurrences` table (a filter check and
//!   a push onto the sender's run; the table is looked up once per run
//!   of one sender's sends, not per send) and one of the key's three
//!   mixing rounds: the other two, the sender's prefix, are kept from
//!   the previous send while the sender and the tick stay the same. Each
//!   draw is then one SplitMix64 mix over the key (draw-order v3).
//!
//! Control messages (`Control::*`, worker reports) ride `std::sync::mpsc`
//! channels — they are rare. Only the per-tick batch traffic rides the
//! lanes.
//!
//! Determinism: a lane is FIFO, each worker's send order within a tick
//! is deterministic (pid-stripe iteration), and fate draws are stateless
//! per `(edge, tick, occurrence)` — so the sequence of envelopes worker
//! `c` observes from lane `p` is a pure function of the config, and
//! sweeping lanes in worker-id order makes the merged delivery order one
//! too. No RNG state rides the transport: a lane carries envelopes and
//! nothing a second producer could race on.
//!
//! A batch pushed onto a lane is only *visible* to the scheduler once
//! the sending worker bumps its watermark: [`EdgeWatermarks::publish`]
//! (one release store) is the transport's "everything due through tick
//! `t + lag` is in your lanes" signal, and a receiver's acquire loads of
//! its peers' watermarks are what replaces the global tick barrier.

use crossbeam::queue::{self, PushError};
use da_core::channel::EdgeRngs;
use da_core::network::{NetFate, NetworkModel, Occurrences};
use da_core::wheel::DelayWheel;
use da_core::{Envelope, Outbound, ProcessId};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed error for a refused hand-off: the destination worker's lanes
/// are closed (it already shut down), so the envelopes were dropped.
/// Feed [`LaneClosed::envelopes`] into the ledger (`dropped_closed`)
/// — nothing else will account for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneClosed {
    /// The destination worker whose lanes are closed.
    pub worker: usize,
    /// Envelopes dropped by the refused hand-off.
    pub envelopes: u64,
}

impl fmt::Display for LaneClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped {} envelope(s): worker {}'s lanes are closed",
            self.envelopes, self.worker
        )
    }
}

impl Error for LaneClosed {}

/// Recycles batch buffers between a producer and its consumers.
///
/// Every [`Hub`] owns one. [`BatchPool::take`] hands out an empty
/// buffer, preferring (in order) the local free list, buffers that came
/// back over the return lanes from consumers that drained them, and —
/// only when both are dry — a freshly minted `Vec`. Steady-state ticks
/// cycle a fixed working set of buffers and never touch the allocator;
/// [`BatchPool::minted`] counts the lifetime allocations so tests can
/// assert exactly that.
#[derive(Debug)]
pub struct BatchPool<M> {
    free: Vec<Vec<Envelope<M>>>,
    /// Return lanes, one per consumer worker: emptied buffers flowing
    /// back from the [`EdgeInbox`]es that drained our batches.
    returns: Vec<queue::Consumer<Vec<Envelope<M>>>>,
    minted: u64,
}

impl<M> BatchPool<M> {
    /// Pulls every buffer waiting on the return lanes into the free
    /// list.
    fn reclaim(&mut self) {
        for lane in &mut self.returns {
            while let Some(buf) = lane.pop() {
                debug_assert!(buf.is_empty(), "consumers return drained buffers");
                self.free.push(buf);
            }
        }
    }

    /// An empty buffer: recycled if one is available, minted otherwise.
    pub fn take(&mut self) -> Vec<Envelope<M>> {
        if self.free.is_empty() {
            self.reclaim();
        }
        self.free.pop().unwrap_or_else(|| {
            self.minted += 1;
            Vec::new()
        })
    }

    /// Returns a buffer to the local free list (cleared, capacity kept).
    fn put(&mut self, mut buf: Vec<Envelope<M>>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Lifetime count of buffers this pool allocated because nothing
    /// was available to recycle. Flat across steady-state ticks.
    #[must_use]
    pub fn minted(&self) -> u64 {
        self.minted
    }

    /// Buffers currently at rest in this pool (free list plus anything
    /// waiting on the return lanes, which this reclaims first).
    pub fn pooled(&mut self) -> usize {
        self.reclaim();
        self.free.len()
    }
}

/// Worker `p`'s producer row of the lane matrix: one bounded SPSC data
/// lane per destination worker, plus the [`BatchPool`] recycling batch
/// buffers that consumers send back.
///
/// Processes are striped across workers (`worker = pid mod workers`), so
/// routing is a single index computation — no lookup table, no lock.
/// Each worker owns its hub exclusively (`!Clone`; the SPSC halves make
/// cloning meaningless) — the lane matrix is the only way messages move
/// between threads.
///
/// ```
/// use da_runtime::{lane_matrix, Envelope};
/// use da_core::ProcessId;
///
/// let (mut hubs, mut inboxes) = lane_matrix(2, 8);
/// hubs[0]
///     .send(Envelope {
///         from: ProcessId(0),
///         to: ProcessId(5),
///         sent_tick: 0,
///         due_tick: 1,
///         msg: "hi",
///     })
///     .unwrap();
/// // 5 mod 2 workers: worker 1 owns the destination.
/// let mut got = Vec::new();
/// inboxes[1].sweep(|lane, env| got.push((lane, env.to)));
/// assert_eq!(got, vec![(0, ProcessId(5))]);
/// ```
#[derive(Debug)]
pub struct Hub<M> {
    /// Data lanes, indexed by consumer worker.
    lanes: Vec<queue::Producer<Vec<Envelope<M>>>>,
    pool: BatchPool<M>,
}

/// Builds the full lane matrix for a `workers`-wide pool: `workers²`
/// bounded data lanes (capacity `capacity` batches each) and `workers²`
/// return lanes, split into one [`Hub`] (producer row) and one
/// [`EdgeInbox`] (consumer column) per worker.
///
/// `capacity` bounds the batches in flight per (producer, consumer)
/// pair. Under the bounded-lag scheduler at most `lag + 1` per-tick
/// batches can be unswept on a lane, so `effective_lag + 2` never
/// blocks; standalone users should size for their own push/drain
/// pattern (a full lane makes the next push spin-yield until the
/// consumer sweeps).
///
/// # Panics
/// Panics when `workers` is zero or `capacity` is zero.
#[must_use]
pub fn lane_matrix<M>(workers: usize, capacity: usize) -> (Vec<Hub<M>>, Vec<EdgeInbox<M>>) {
    assert!(workers > 0, "a lane matrix needs at least one worker");
    let mut hub_lanes: Vec<Vec<queue::Producer<Vec<Envelope<M>>>>> =
        (0..workers).map(|_| Vec::with_capacity(workers)).collect();
    let mut inbox_lanes: Vec<Vec<queue::Consumer<Vec<Envelope<M>>>>> =
        (0..workers).map(|_| Vec::with_capacity(workers)).collect();
    let mut return_txs: Vec<Vec<queue::Producer<Vec<Envelope<M>>>>> =
        (0..workers).map(|_| Vec::with_capacity(workers)).collect();
    let mut return_rxs: Vec<Vec<queue::Consumer<Vec<Envelope<M>>>>> =
        (0..workers).map(|_| Vec::with_capacity(workers)).collect();
    for producer in 0..workers {
        for consumer in 0..workers {
            let (tx, rx) = queue::spsc(capacity);
            hub_lanes[producer].push(tx);
            inbox_lanes[consumer].push(rx);
            let (tx, rx) = queue::spsc(capacity);
            return_txs[consumer].push(tx);
            return_rxs[producer].push(rx);
        }
    }
    let hubs = hub_lanes
        .into_iter()
        .zip(return_rxs)
        .map(|(lanes, returns)| Hub {
            lanes,
            pool: BatchPool {
                free: Vec::new(),
                returns,
                minted: 0,
            },
        })
        .collect();
    let inboxes = inbox_lanes
        .into_iter()
        .zip(return_txs)
        .map(|(lanes, returns)| EdgeInbox { lanes, returns })
        .collect();
    (hubs, inboxes)
}

impl<M> Hub<M> {
    /// Number of workers behind this hub.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The worker owning `pid`.
    fn worker_of(&self, pid: ProcessId) -> usize {
        pid.index() % self.lanes.len()
    }

    /// This hub's buffer pool.
    pub fn pool(&mut self) -> &mut BatchPool<M> {
        &mut self.pool
    }

    /// Hands one envelope to the owning worker's lane, lock-free, as a
    /// batch of one in a buffer from the pool.
    ///
    /// # Errors
    /// [`LaneClosed`] when that worker has already shut down — the
    /// envelope is dropped and must be accounted by the caller.
    #[must_use = "a refused send drops the envelope — account it in the ledger"]
    pub fn send(&mut self, envelope: Envelope<M>) -> Result<(), LaneClosed> {
        let worker = self.worker_of(envelope.to);
        let mut batch = self.pool.take();
        batch.push(envelope);
        self.send_batch(worker, batch).map(|_| ())
    }

    /// Hands a whole per-tick batch to `worker`'s lane in one lock-free
    /// push — the amortisation the gossip fanout lives off (many small
    /// same-destination sends per tick) — yielding while the lane is
    /// full (the consumer is behind; under the runtime's lag-derived
    /// capacity this cannot happen). Returns the envelope count on
    /// success.
    ///
    /// # Errors
    /// [`LaneClosed`] when the worker has already shut down: the
    /// envelopes are dropped (their count rides the error — feed it into
    /// the ledger) and the buffer itself is recycled into the pool.
    ///
    /// # Panics
    /// Panics when `worker` is out of range.
    #[must_use = "a refused hand-off drops the whole batch — feed the count into the ledger"]
    pub fn send_batch(
        &mut self,
        worker: usize,
        mut batch: Vec<Envelope<M>>,
    ) -> Result<u64, LaneClosed> {
        debug_assert!(!batch.is_empty(), "empty batches are never sent");
        let envelopes = batch.len() as u64;
        let lane = &mut self.lanes[worker];
        loop {
            match lane.push(batch) {
                Ok(()) => return Ok(envelopes),
                Err(PushError::Full(b)) => {
                    batch = b;
                    std::thread::yield_now();
                }
                Err(PushError::Disconnected(b)) => {
                    self.pool.put(b);
                    return Err(LaneClosed { worker, envelopes });
                }
            }
        }
    }
}

/// Worker `c`'s consumer column of the lane matrix: one bounded SPSC
/// data lane per producer worker, swept in worker-id order, plus the
/// return lanes handing drained batch buffers back to their producers.
#[derive(Debug)]
pub struct EdgeInbox<M> {
    /// Data lanes, indexed by producer worker.
    lanes: Vec<queue::Consumer<Vec<Envelope<M>>>>,
    /// Return lanes, indexed by producer worker.
    returns: Vec<queue::Producer<Vec<Envelope<M>>>>,
}

impl<M> EdgeInbox<M> {
    /// Drains every incoming lane once, **in producer worker-id order**,
    /// handing each envelope to `visit` tagged with its producer lane.
    /// Within a lane the order is the producer's send order (SPSC FIFO)
    /// — together that makes the visit sequence deterministic. Drained
    /// buffers go back to the owning producer's pool over the return
    /// lane (or are simply freed if that lane is full or closed — never
    /// leaked). Returns the number of batches swept, the `lane_depth`
    /// observability signal.
    pub fn sweep(&mut self, mut visit: impl FnMut(usize, Envelope<M>)) -> u64 {
        let mut batches = 0;
        for (producer, lane) in self.lanes.iter_mut().enumerate() {
            while let Some(mut buf) = lane.pop() {
                batches += 1;
                for env in buf.drain(..) {
                    visit(producer, env);
                }
                // A refused return (full lane, gone producer) just
                // frees the buffer — the pool mints a replacement when
                // it next runs dry.
                let _ = self.returns[producer].push(buf);
            }
        }
        batches
    }

    /// Pops every batch currently on the incoming lanes, **in producer
    /// worker-id order** and FIFO within a lane, handing each whole to
    /// `keep` with its producer lane. The caller owns the buffer until it
    /// hands it back with [`recycle`](Self::recycle). Returns the number
    /// of batches taken.
    pub(crate) fn take_batches(&mut self, mut keep: impl FnMut(usize, Vec<Envelope<M>>)) -> u64 {
        let mut batches = 0;
        for (producer, lane) in self.lanes.iter_mut().enumerate() {
            while let Some(buf) = lane.pop() {
                batches += 1;
                keep(producer, buf);
            }
        }
        batches
    }

    /// Hands a buffer taken by [`take_batches`](Self::take_batches) back
    /// to its producer's pool, emptied (or frees it if that return lane
    /// is full or closed).
    pub(crate) fn recycle(&mut self, producer: usize, mut buf: Vec<Envelope<M>>) {
        buf.clear();
        let _ = self.returns[producer].push(buf);
    }

    /// Drains everything still in flight on the incoming lanes,
    /// returning the envelope count — the shutdown accounting path
    /// (`dropped_shutdown`).
    pub fn drain(&mut self) -> u64 {
        let mut envelopes = 0;
        self.sweep(|_, _| envelopes += 1);
        envelopes
    }
}

/// What one [`FaultyRouter::flush`] moved and lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Lane pushes performed (≤ one per destination worker).
    pub batches: u64,
    /// Envelopes handed over across all batches.
    pub envelopes: u64,
    /// Envelopes lost because their destination worker had already shut
    /// down.
    pub dropped_closed: u64,
}

/// A [`Hub`] behind an unreliable network: drops and delays envelopes
/// according to a [`NetworkModel`] (one channel, partition schedule,
/// scripted drops), and holds the survivors on a
/// [`DelayWheel`] whose lanes are the destination workers — one bucket
/// per (due tick, destination worker), in send order, filled in pooled
/// buffers that recycle for the whole runtime lifetime. A flush ships
/// buckets whole. A bare `ChannelConfig` converts into the uniform
/// model.
///
/// The wheel spans [`NetworkModel::ring_ticks`] due ticks past the last
/// flush, so every send lands in it when flushes come as a worker's do
/// (through `t + lag` each tick `t`) or in full. A router still holding
/// envelopes panics on a send due outside that window.
///
/// Partition cuts are decided from the schedule alone — a pure function
/// of the two endpoints and the send tick, consuming zero randomness —
/// so both substrates sever the same sends. Loss and latency draws come
/// from `da_core`'s stateless [`EdgeRngs`]: each send's RNG is keyed by
/// `(edge, send tick, within-tick occurrence)`, so the fate of "the
/// k-th message from process 3 to process 9 in tick t" depends on
/// neither worker striping *nor* the edge's prior traffic — zero
/// resident RNG state per edge; the occurrence comes from one
/// [`Occurrences`] table cleared at every tick. A perfect configuration
/// ([`NetworkModel::is_perfect`]) takes a draw-free fast path and is
/// byte-for-byte equivalent to sending on the plain [`Hub`].
///
/// Each worker owns its own `FaultyRouter` (wrapping its [`Hub`], its
/// row of the lane matrix); since a process is owned by exactly one
/// worker, the per-tick occurrence counters never race.
///
/// ```
/// use da_core::channel::ChannelConfig;
/// use da_runtime::{lane_matrix, FaultyRouter};
/// use da_core::{NetFate, ProcessId};
///
/// let (mut hubs, mut inboxes) = lane_matrix(1, 8);
/// let mut faulty = FaultyRouter::new(hubs.remove(0), ChannelConfig::reliable(), 7);
///
/// // Two sends in tick 0, due at tick 1, coalesce into one lane push.
/// faulty.send(ProcessId(0), ProcessId(1), 0, "a");
/// faulty.send(ProcessId(0), ProcessId(1), 0, "b");
/// let report = faulty.flush();
/// assert_eq!((report.batches, report.envelopes), (1, 2));
/// let mut seen = 0;
/// inboxes[0].sweep(|_, _| seen += 1);
/// assert_eq!(seen, 2);
///
/// // A fully lossy channel drops everything before it reaches the wire.
/// let (mut hubs, _inboxes) = lane_matrix::<&str>(1, 8);
/// let black_hole = ChannelConfig::reliable().with_success_probability(0.0);
/// let mut faulty = FaultyRouter::new(hubs.remove(0), black_hole, 7);
/// let fate = faulty.send(ProcessId(0), ProcessId(1), 0, "gone");
/// assert_eq!(fate, NetFate::Lost);
/// assert_eq!(faulty.flush().envelopes, 0);
/// ```
#[derive(Debug)]
pub struct FaultyRouter<M> {
    hub: Hub<M>,
    network: NetworkModel,
    /// `network.is_perfect()`, cached at construction so the reliable
    /// hot path costs one branch instead of a model walk per send.
    perfect: bool,
    rngs: EdgeRngs,
    /// Every survivor not yet shipped, bucketed by (due tick,
    /// destination worker). A shipped bucket is refilled from the hub's
    /// [`BatchPool`], so the same buffers cycle producer → lane →
    /// consumer → return lane → producer for the runtime's whole
    /// lifetime. Its worker reads what it holds off it, and discards it
    /// at shutdown.
    pub(crate) wheel: DelayWheel<M>,
    /// Per-edge send counts for the tick in `occ_tick`, giving each send
    /// its occurrence index — the counter half of the stateless
    /// `(edge, tick, occurrence)` draw key, and the occurrence scripted
    /// drops match on. The perfect fast path never touches it; every
    /// imperfect send bumps it (the occurrence disambiguates same-edge
    /// sends within one tick). A bump is a filter check and a push onto
    /// the sender's run, inlined here; only a change of sender leaves
    /// the inlined code. A worker sends sequentially and owns its
    /// sources, so the count per edge is deterministic.
    occurrences: Occurrences,
    /// Tick the occurrence counts belong to; they are cleared when a
    /// send arrives for a later tick.
    occ_tick: u64,
    /// The last sender and send tick seen, and the prefix of their draw
    /// keys ([`EdgeRngs::sender_seed`]). A hook's sends arrive back to
    /// back in one tick (two on the flood, about nine on a wave's first
    /// delivery), so most sends skip two of the key's three mixing
    /// rounds. The seed is a pure function of the pid and the tick: the
    /// triple is always a valid one, whichever sender it is for.
    sender: (ProcessId, u64, u64),
}

impl<M> FaultyRouter<M> {
    /// Wraps `hub` with the given network model (a bare
    /// `ChannelConfig` converts into the uniform model); `master_seed`
    /// roots the per-edge RNG streams (use the runtime's configured seed
    /// so live fault draws are reproducible). A link latency past the
    /// ring's bound panics ([`NetworkModel::ring_ticks`]).
    #[must_use]
    pub fn new(hub: Hub<M>, network: impl Into<NetworkModel>, master_seed: u64) -> Self {
        let network = network.into();
        let wheel = DelayWheel::with_capacity(network.ring_ticks(), hub.workers());
        let rngs = EdgeRngs::new(master_seed);
        FaultyRouter {
            hub,
            perfect: network.is_perfect(),
            network,
            rngs,
            wheel,
            occurrences: Occurrences::default(),
            occ_tick: 0,
            sender: (ProcessId(0), 0, rngs.sender_seed(0, 0)),
        }
    }

    /// The wrapped hub (for pool access and direct sends in tests).
    pub fn hub(&mut self) -> &mut Hub<M> {
        &mut self.hub
    }

    /// Routes one message through the unreliable network: checks the
    /// partition schedule (pure, draw-free), then any scripted drop for
    /// this send's per-tick occurrence on the edge (pure), then samples
    /// the surviving send's fate from a stateless RNG keyed by
    /// `(edge, tick, occurrence)` on the channel, and, if it
    /// survives, holds it for the destination worker, due `latency`
    /// ticks after `sent_tick`, until a flush ships its due tick.
    // Carries the message by value into the wheel: one out-of-line hop
    // re-copies it and moves the send path's store-forwarding stall here.
    #[inline(always)]
    pub fn send(&mut self, from: ProcessId, to: ProcessId, sent_tick: u64, msg: M) -> NetFate {
        let fate = if self.perfect {
            // Draw-free fast path: no occurrence counting, no seed
            // derivation on the hot path of a reliable runtime.
            NetFate::Deliver { latency: 1 }
        } else {
            if sent_tick != self.occ_tick {
                self.occurrences.clear();
                self.occ_tick = sent_tick;
            }
            let occurrence = self.occurrences.bump(from, to);
            if (self.sender.0, self.sender.1) != (from, sent_tick) {
                let seed = self.rngs.sender_seed(u64::from(from.0), sent_tick);
                self.sender = (from, sent_tick, seed);
            }
            let mut rng =
                self.rngs
                    .draw_rng_from(self.sender.2, u64::from(to.0), u64::from(occurrence));
            self.network
                .decide_fate(from, to, sent_tick, occurrence, &mut rng)
        };
        if let NetFate::Deliver { latency } = fate {
            let worker = self.hub.worker_of(to);
            self.wheel.schedule(
                worker,
                Envelope {
                    from,
                    to,
                    sent_tick,
                    due_tick: sent_tick + latency,
                    msg,
                },
            );
        }
        fate
    }

    /// Hands every held envelope to its destination worker, whatever
    /// its due tick — one lane push per destination with anything held,
    /// the envelopes in (due tick, send) order. Closed-lane losses are
    /// totalled in [`FlushReport::dropped_closed`] — the caller feeds
    /// that into the ledger.
    pub fn flush(&mut self) -> FlushReport {
        self.flush_through(u64::MAX)
    }

    /// Hands every held envelope due at or before `due` to its
    /// destination worker: one lane push per destination, refilling the
    /// emptied buckets from the buffer pool. A worker calls it once per
    /// tick `t` with `due = t + lag`, before publishing its watermark:
    /// every send that can fall due by then has been made, so each
    /// destination gets that due tick's bucket whole, as one batch.
    pub(crate) fn flush_through(&mut self, due: u64) -> FlushReport {
        let hub = &mut self.hub;
        let mut report = FlushReport::default();
        // The wheel releases a destination's buckets back to back, in due
        // order, so they join one batch, pushed once the next
        // destination's first bucket arrives.
        let mut batch = (0, Vec::new());
        let mut push = |hub: &mut Hub<M>, worker, batch| {
            report.batches += 1;
            match hub.send_batch(worker, batch) {
                Ok(n) => report.envelopes += n,
                Err(err) => report.dropped_closed += err.envelopes,
            }
        };
        self.wheel.release_through(due, |worker, mut bucket| {
            if batch.0 != worker && !batch.1.is_empty() {
                push(hub, batch.0, std::mem::take(&mut batch.1));
            }
            if batch.1.is_empty() {
                batch = (worker, bucket);
                hub.pool.take()
            } else {
                // A later due tick for the same destination (a full
                // flush): one batch all the same.
                batch.1.append(&mut bucket);
                bucket
            }
        });
        if !batch.1.is_empty() {
            push(hub, batch.0, batch.1);
        }
        report
    }
}

/// The live half of the `da_core::stripe` seam: a worker's sends go
/// through its router.
impl<M> Outbound for FaultyRouter<M> {
    type Msg = M;

    // Carries the message by value: see `FaultyRouter::send`.
    #[inline(always)]
    fn send(&mut self, from: ProcessId, to: ProcessId, tick: u64, msg: M) -> NetFate {
        FaultyRouter::send(self, from, to, tick, msg)
    }
}

/// One sender's watermark on a cache line of its own: the line's only
/// writer is that sender, so two senders never false-share, and a line
/// that receivers only read stays shared between them.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Watermark(AtomicU64);

/// The per-sender publish watermarks that replace the global tick
/// barrier.
///
/// At the end of its tick `t` a worker ships every envelope due by
/// `t + lag`, one batch per destination, before it publishes, so what
/// it has published is the same toward every receiver: one number per
/// sender. After that flush, a sender stores `t + 1` (release),
/// promising "every envelope I will ever hand anyone due by `t + lag`
/// is already in their lanes" — `lag` being the scheduler's effective
/// drift bound, the network's latency floor, so nothing it sends later
/// falls due that early. A receiver that wants to execute tick `n`
/// acquires its peers' watermarks and waits until each shows at least
/// `n + 1 − lag` published ticks: every envelope due by `n` is then in
/// its lanes, so no delivery can be missed and no barrier is needed.
///
/// ```
/// use da_runtime::EdgeWatermarks;
///
/// let marks = EdgeWatermarks::new(3);
/// assert!(marks.all_published(1, 0), "tick 0 needs nothing published");
/// marks.publish(0, 1); // worker 0 flushed tick 0 on every out-edge
/// marks.publish(2, 1);
/// assert!(marks.all_published(1, 1), "both peers published tick 0");
/// assert!(!marks.all_published(0, 1), "worker 2 still waits on worker 1");
/// assert_eq!(marks.published(0), 1);
/// ```
#[derive(Debug)]
pub struct EdgeWatermarks {
    /// Indexed by sender.
    marks: Vec<Watermark>,
}

impl EdgeWatermarks {
    /// All-zero watermarks (nothing published) over a `workers`-wide
    /// pool.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        EdgeWatermarks {
            marks: (0..workers.max(1)).map(|_| Watermark::default()).collect(),
        }
    }

    /// Number of workers the watermarks span.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.marks.len()
    }

    /// Records that `sender` has flushed every outbound batch of ticks
    /// `0..ticks` on every out-edge. A release store: a receiver that
    /// acquires the new value also sees the flushed batches in its
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics when `sender` is out of range.
    pub fn publish(&self, sender: usize, ticks: u64) {
        self.marks[sender].0.store(ticks, Ordering::Release);
    }

    /// How many ticks `sender` has published (the same toward every
    /// receiver).
    ///
    /// # Panics
    ///
    /// Panics when `sender` is out of range.
    #[must_use]
    pub fn published(&self, sender: usize) -> u64 {
        self.marks[sender].0.load(Ordering::Acquire)
    }

    /// True when every *peer* of `receiver` has published at least
    /// `ticks` ticks (a worker never waits on itself — its own output is
    /// flushed before it could matter).
    ///
    /// # Panics
    ///
    /// Panics when `receiver` is out of range.
    #[must_use]
    pub fn all_published(&self, receiver: usize, ticks: u64) -> bool {
        assert!(
            receiver < self.marks.len(),
            "receiver {receiver} out of range"
        );
        self.marks
            .iter()
            .enumerate()
            .all(|(sender, mark)| sender == receiver || mark.0.load(Ordering::Acquire) >= ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::channel::{ChannelConfig, Latency};

    fn env(to: u32) -> Envelope<u8> {
        Envelope {
            from: ProcessId(0),
            to: ProcessId(to),
            sent_tick: 0,
            due_tick: 1,
            msg: 1,
        }
    }

    /// Sweeps an inbox into `(lane, from, to, sent, due, msg)` tuples.
    fn collect(inbox: &mut EdgeInbox<u8>) -> Vec<(usize, u32, u32, u64, u64, u8)> {
        let mut got = Vec::new();
        inbox.sweep(|lane, e| got.push((lane, e.from.0, e.to.0, e.sent_tick, e.due_tick, e.msg)));
        got
    }

    #[test]
    fn routes_by_pid_stripe() {
        let (mut hubs, mut inboxes) = lane_matrix(2, 8);
        assert_eq!(hubs[0].workers(), 2);
        hubs[0].send(env(4)).unwrap();
        hubs[0].send(env(5)).unwrap();
        hubs[0].send(env(7)).unwrap();
        let w0 = collect(&mut inboxes[0]);
        let w1 = collect(&mut inboxes[1]);
        assert_eq!(w0.len(), 1, "pid 4 → worker 0");
        assert_eq!(w1.len(), 2, "pids 5 and 7 → worker 1");
        assert_eq!(w0[0].2, 4);
        assert_eq!(w1.iter().map(|e| e.2).collect::<Vec<_>>(), vec![5, 7]);
    }

    #[test]
    fn send_to_gone_worker_reports_typed_drop() {
        let (mut hubs, inboxes) = lane_matrix::<u8>(1, 4);
        drop(inboxes);
        let err = hubs[0].send(env(0)).unwrap_err();
        assert_eq!(
            err,
            LaneClosed {
                worker: 0,
                envelopes: 1
            }
        );
        let err = hubs[0].send_batch(0, vec![env(0), env(0)]).unwrap_err();
        assert_eq!(err.envelopes, 2, "the error carries the dropped count");
        assert!(err.to_string().contains("lanes are closed"));
    }

    #[test]
    fn sweep_visits_lanes_in_worker_id_order() {
        // Three producers push to worker 0 in reverse id order; the
        // sweep still visits lane 0, then 1, then 2 — the deterministic
        // merge order the runtime's delivery schedule is built on.
        let (mut hubs, mut inboxes) = lane_matrix(3, 8);
        for p in (0..3usize).rev() {
            let mut e = env(0);
            e.from = ProcessId(p as u32);
            e.msg = p as u8;
            hubs[p].send(e).unwrap();
        }
        let got = collect(&mut inboxes[0]);
        assert_eq!(
            got.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "lanes sweep in producer worker-id order regardless of push order"
        );
    }

    #[test]
    fn batch_pool_recycles_buffers_round_trip() {
        let (mut hubs, mut inboxes) = lane_matrix(1, 8);
        let mut faulty = FaultyRouter::new(hubs.remove(0), ChannelConfig::reliable(), 3);
        for tick in 0..100u64 {
            for i in 0..4u32 {
                faulty.send(ProcessId(0), ProcessId(i), tick, 0);
            }
            faulty.flush();
            inboxes[0].sweep(|_, _| {});
        }
        let pool = faulty.hub().pool();
        let minted = pool.minted();
        assert!(
            minted <= 2,
            "steady-state flushing must cycle a tiny working set, minted {minted}"
        );
        // Every minted buffer is at rest again: in the pool or held as a
        // wheel bucket (buckets hold pool buffers once they've cycled).
        assert!(pool.pooled() as u64 <= minted);
    }

    /// Satellite requirement: under a perfect channel config the faulty
    /// path must produce the byte-for-byte event set of the plain
    /// [`Hub`] — same envelopes, same fields, same per-destination
    /// order.
    #[test]
    fn perfect_faulty_router_matches_plain_hub_byte_for_byte() {
        let sends: Vec<(u32, u32, u64, u8)> = vec![
            (0, 3, 0, 10),
            (0, 4, 0, 11),
            (2, 3, 0, 12),
            (0, 3, 1, 13),
            (4, 1, 1, 14),
            (2, 0, 2, 15),
        ];

        // Plain hub, one lane push per envelope.
        let (mut hubs, mut inboxes) = lane_matrix(2, 32);
        for &(from, to, tick, msg) in &sends {
            hubs[0]
                .send(Envelope {
                    from: ProcessId(from),
                    to: ProcessId(to),
                    sent_tick: tick,
                    due_tick: tick + 1,
                    msg,
                })
                .unwrap();
        }
        let plain_w0 = collect(&mut inboxes[0]);
        let plain_w1 = collect(&mut inboxes[1]);

        // Faulty router with the zero-latency perfect config, flushed
        // at each tick boundary like the worker loop does.
        let (mut hubs, mut inboxes) = lane_matrix(2, 32);
        let mut faulty = FaultyRouter::new(
            hubs.remove(0),
            ChannelConfig::reliable().with_latency(Latency::Fixed(1)),
            99,
        );
        let mut last_tick = 0;
        for &(from, to, tick, msg) in &sends {
            if tick != last_tick {
                faulty.flush();
                last_tick = tick;
            }
            let fate = faulty.send(ProcessId(from), ProcessId(to), tick, msg);
            assert_eq!(fate, NetFate::Deliver { latency: 1 });
        }
        let report = faulty.flush();
        assert_eq!(report.dropped_closed, 0);
        let faulty_w0 = collect(&mut inboxes[0]);
        let faulty_w1 = collect(&mut inboxes[1]);

        assert_eq!(plain_w0, faulty_w0);
        assert_eq!(plain_w1, faulty_w1);
    }

    /// A model-checker counterexample replays on the live transport: a
    /// scripted drop kills exactly the named per-tick occurrence on its
    /// edge, draw-free, and every other send on a reliable channel
    /// still goes through.
    #[test]
    fn scripted_drop_kills_exact_occurrence_on_live_router() {
        use da_core::network::{DropSchedule, ScriptedDrop};
        let network =
            NetworkModel::uniform(ChannelConfig::reliable().with_latency(Latency::Fixed(1)))
                .with_drops(DropSchedule::none().with_drop(ScriptedDrop {
                    tick: 5,
                    from: ProcessId(0),
                    to: ProcessId(1),
                    occurrence: 1,
                }));
        let (mut hubs, mut inboxes) = lane_matrix::<u8>(1, 16);
        let mut faulty = FaultyRouter::new(hubs.remove(0), network, 11);

        // Tick 5, edge 0 → 1: only the second send dies.
        let fates: Vec<NetFate> = (0..3)
            .map(|i| faulty.send(ProcessId(0), ProcessId(1), 5, i))
            .collect();
        assert_eq!(
            fates,
            vec![
                NetFate::Deliver { latency: 1 },
                NetFate::Lost,
                NetFate::Deliver { latency: 1 },
            ]
        );
        // Same tick, different edge: untouched.
        assert_eq!(
            faulty.send(ProcessId(2), ProcessId(1), 5, 9),
            NetFate::Deliver { latency: 1 }
        );
        // Next tick, same edge and occurrence: counters reset, the
        // script names tick 5 only, so everything goes through.
        let fates: Vec<NetFate> = (0..3)
            .map(|i| faulty.send(ProcessId(0), ProcessId(1), 6, i))
            .collect();
        assert!(fates
            .iter()
            .all(|f| matches!(f, NetFate::Deliver { latency: 1 })));
        faulty.flush();
        let delivered = inboxes[0].drain();
        assert_eq!(delivered, 6, "3 sends survived of 4 at tick 5, plus 3 at 6");
    }

    #[test]
    fn flush_coalesces_per_destination_worker() {
        let (mut hubs, mut inboxes) = lane_matrix::<u8>(2, 8);
        let mut faulty = FaultyRouter::new(hubs.remove(0), ChannelConfig::reliable(), 1);
        for to in [0u32, 1, 2, 3, 4, 5] {
            faulty.send(ProcessId(9), ProcessId(to), 0, to as u8);
        }
        let report = faulty.flush();
        assert_eq!(report.batches, 2, "one lane push per destination worker");
        assert_eq!(report.envelopes, 6);
        let w0 = collect(&mut inboxes[0]);
        let w1 = collect(&mut inboxes[1]);
        assert_eq!(w0.len(), 3);
        assert_eq!(w1.len(), 3);
        // Nothing buffered afterwards: a second flush is a no-op.
        assert_eq!(faulty.flush(), FlushReport::default());
    }

    /// A worker's per-tick flush ships only the due tick it names: one
    /// batch per destination worker, holding that (due tick,
    /// destination) bucket in send order. Later dues wait on the
    /// router's wheel.
    #[test]
    fn flush_through_ships_one_due_tick_as_whole_batches() {
        let (mut hubs, mut inboxes) = lane_matrix::<u8>(2, 8);
        let mut faulty = FaultyRouter::new(
            hubs.remove(0),
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 2, max: 4 }),
            3,
        );
        let mut dues = Vec::new();
        for i in 0..40u8 {
            match faulty.send(ProcessId(9), ProcessId(u32::from(i % 4)), 10, i) {
                NetFate::Deliver { latency } => dues.push((i, 10 + latency)),
                fate => panic!("reliable channel: {fate:?}"),
            }
        }
        assert_eq!(
            (faulty.wheel.len(), faulty.wheel.due_horizon()),
            (40, Some(14))
        );
        for due in 12..=14 {
            let report = faulty.flush_through(due);
            assert_eq!(report.batches, 2, "one batch per destination worker");
            for (worker, inbox) in inboxes.iter_mut().enumerate() {
                let mut batches = Vec::new();
                inbox.take_batches(|lane, batch| batches.push((lane, batch)));
                let [(0, batch)] = &batches[..] else {
                    panic!("due {due}: {batches:?}")
                };
                let want: Vec<u8> = dues
                    .iter()
                    .filter(|&&(i, d)| d == due && usize::from(i % 2) == worker)
                    .map(|&(i, _)| i)
                    .collect();
                assert_eq!(batch.iter().map(|e| e.msg).collect::<Vec<_>>(), want);
                assert!(batch.iter().all(|e| e.due_tick == due));
            }
        }
        assert!(faulty.wheel.is_empty());
    }

    #[test]
    fn lossy_channel_drops_roughly_fraction() {
        let (mut hubs, mut inboxes) = lane_matrix::<u8>(1, 8);
        let mut faulty = FaultyRouter::new(
            hubs.remove(0),
            ChannelConfig::reliable().with_success_probability(0.5),
            5,
        );
        let mut dropped = 0u64;
        let mut arrived = 0u64;
        for i in 0..1000u64 {
            // Spread over many edges so several streams are exercised.
            let from = ProcessId((i % 10) as u32);
            if faulty.send(from, ProcessId(((i / 10) % 7) as u32), i, 0) == NetFate::Lost {
                dropped += 1;
            }
            faulty.flush();
            // Sweep per tick, like the worker loop — the lanes are
            // bounded, a single-threaded pump must drain as it goes.
            arrived += inboxes[0].drain();
        }
        assert!(
            (350..650).contains(&dropped),
            "dropped {dropped} of 1000, expected ≈ half"
        );
        assert_eq!(arrived + dropped, 1000);
    }

    #[test]
    fn latency_sampling_stamps_due_ticks_in_bounds() {
        let (mut hubs, mut inboxes) = lane_matrix::<u8>(1, 8);
        let mut faulty = FaultyRouter::new(
            hubs.remove(0),
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 2, max: 4 }),
            3,
        );
        for _ in 0..200 {
            let fate = faulty.send(ProcessId(0), ProcessId(0), 10, 0);
            match fate {
                NetFate::Deliver { latency } => assert!((2..=4).contains(&latency)),
                NetFate::Lost => panic!("reliable channel lost a message"),
                NetFate::Severed => panic!("no partition is scripted"),
            }
        }
        faulty.flush();
        let mut count = 0;
        inboxes[0].sweep(|_, envelope| {
            assert_eq!(envelope.sent_tick, 10);
            assert!((12..=14).contains(&envelope.due_tick));
            count += 1;
        });
        assert_eq!(count, 200);
    }

    #[test]
    fn fault_draws_are_reproducible_per_edge() {
        let run = || {
            let (mut hubs, mut inboxes) = lane_matrix::<u8>(1, 8);
            let mut faulty = FaultyRouter::new(hubs.remove(0), ChannelConfig::paper_default(), 42);
            (0..64u64)
                .map(|i| {
                    let lost = faulty.send(ProcessId(1), ProcessId(2), i, 0) == NetFate::Lost;
                    // Flushed and swept each tick, as a worker does.
                    faulty.flush();
                    inboxes[0].drain();
                    lost
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run(), "same seed, same edge, same fates");
    }

    #[test]
    fn same_tick_sends_draw_independent_fates_per_occurrence() {
        // Many sends on one edge within one tick: each gets its own
        // occurrence-keyed draw, so fates are not all correlated copies
        // of the first.
        let (mut hubs, _inboxes) = lane_matrix::<u8>(1, 8);
        let mut faulty = FaultyRouter::new(
            hubs.remove(0),
            ChannelConfig::reliable().with_success_probability(0.5),
            42,
        );
        let fates: Vec<bool> = (0..64)
            .map(|i| faulty.send(ProcessId(1), ProcessId(2), 7, i) == NetFate::Lost)
            .collect();
        let dropped = fates.iter().filter(|&&d| d).count();
        assert!(
            (10..54).contains(&dropped),
            "dropped {dropped} of 64 same-tick sends; occurrence keying must decorrelate them"
        );

        // And the occurrence counter resets per tick: the k-th send of a
        // tick replays the k-th fate of that tick, deterministically.
        let (mut hubs, _inboxes) = lane_matrix::<u8>(1, 8);
        let mut again = FaultyRouter::new(
            hubs.remove(0),
            ChannelConfig::reliable().with_success_probability(0.5),
            42,
        );
        let replay: Vec<bool> = (0..64)
            .map(|i| again.send(ProcessId(1), ProcessId(2), 7, i) == NetFate::Lost)
            .collect();
        assert_eq!(fates, replay);
    }

    #[test]
    fn partition_cut_severs_then_heals_without_consuming_draws() {
        use da_core::network::{NetworkModel, Partition, PartitionSchedule};
        let network = |partitions| NetworkModel {
            partitions,
            ..NetworkModel::uniform(ChannelConfig::paper_default())
        };
        let cut = PartitionSchedule::none()
            .with_partition(Partition::cut([ProcessId(1)], 10).heal_at(20));

        // Encode each fate latency-relative so runs at different ticks
        // compare: Severed → -2, Lost → -1, Deliver → its latency.
        let run = |partitions: PartitionSchedule| {
            let (mut hubs, mut inboxes) = lane_matrix::<u8>(1, 8);
            let mut faulty = FaultyRouter::new(hubs.remove(0), network(partitions), 42);
            (0..30u64)
                .map(|tick| {
                    let fate = match faulty.send(ProcessId(0), ProcessId(1), tick, 0) {
                        NetFate::Severed => -2i64,
                        NetFate::Lost => -1,
                        NetFate::Deliver { latency } => latency as i64,
                    };
                    faulty.flush();
                    inboxes[0].drain();
                    fate
                })
                .collect::<Vec<i64>>()
        };
        let severed = run(cut);
        let open = run(PartitionSchedule::none());

        assert!(
            severed[10..20].iter().all(|&f| f == -2),
            "every send inside the window is severed"
        );
        assert_eq!(
            severed[..10],
            open[..10],
            "fates before the cut are untouched"
        );
        // Draws are keyed by (edge, tick, occurrence), not stream
        // position, so post-heal fates are *identical* to the never-cut
        // run at the same ticks — severing a window cannot shift any
        // other send's fate.
        assert_eq!(severed[20..30], open[20..30]);
        assert!(severed[20..].iter().all(|&f| f != -2));
    }

    #[test]
    fn watermarks_gate_per_receiver() {
        let marks = EdgeWatermarks::new(2);
        assert_eq!(marks.workers(), 2);
        assert!(marks.all_published(0, 0));
        assert!(!marks.all_published(0, 1));
        marks.publish(1, 3);
        assert!(marks.all_published(0, 3));
        assert!(!marks.all_published(0, 4));
        assert_eq!(marks.published(1), 3);
        // Worker 1 still waits on worker 0's publishes.
        assert!(!marks.all_published(1, 1));
        assert_eq!(marks.published(0), 0);
    }

    #[test]
    fn single_worker_grid_never_waits() {
        let marks = EdgeWatermarks::new(1);
        assert!(marks.all_published(0, u64::MAX));
    }

    #[test]
    fn wide_grid_keeps_cells_distinct_across_line_packing() {
        // 37 workers: rows span 5 cache lines with a ragged tail, so
        // every packing edge case (first cell, mid-line, line boundary,
        // last partial line) is exercised.
        let workers = 37;
        let marks = EdgeWatermarks::new(workers);
        for sender in 0..workers {
            marks.publish(sender, sender as u64 + 1);
        }
        for sender in 0..workers {
            assert_eq!(marks.published(sender), sender as u64 + 1);
        }
        assert!(marks.all_published(0, 1), "every peer published ≥ 1");
        assert!(!marks.all_published(36, 2), "sender 0 only published 1");
    }

    #[test]
    fn watermarks_synchronise_with_lane_contents() {
        // The release/acquire contract: once a receiver observes the
        // watermark, the pushed batch must already be on its lane.
        let (mut hubs, mut inboxes) = lane_matrix::<u64>(2, 4);
        let mut producer_hub = hubs.remove(1);
        let mut inbox0 = inboxes.remove(0);
        let marks = std::sync::Arc::new(EdgeWatermarks::new(2));
        let sender_marks = std::sync::Arc::clone(&marks);
        let handle = std::thread::spawn(move || {
            for tick in 0..200u64 {
                // The lane is bounded: a full push yields inside `send`
                // until the receiver sweeps, which it does concurrently.
                producer_hub
                    .send(Envelope {
                        from: ProcessId(1),
                        to: ProcessId(0),
                        sent_tick: tick,
                        due_tick: tick + 1,
                        msg: tick,
                    })
                    .unwrap();
                sender_marks.publish(1, tick + 1);
            }
        });
        let mut seen = 0u64;
        while seen < 200 {
            if marks.published(1) > seen {
                let before = seen;
                inbox0.sweep(|_, _| seen += 1);
                assert!(seen > before, "published batch must be visible");
            } else {
                std::thread::yield_now();
            }
        }
        handle.join().unwrap();
    }

    #[test]
    fn flush_counts_closed_workers() {
        let (mut hubs, inboxes) = lane_matrix::<u8>(1, 8);
        let mut faulty = FaultyRouter::new(hubs.remove(0), ChannelConfig::reliable(), 0);
        faulty.send(ProcessId(0), ProcessId(0), 0, 1);
        faulty.send(ProcessId(0), ProcessId(0), 0, 2);
        drop(inboxes);
        let report = faulty.flush();
        assert_eq!(report.dropped_closed, 2);
        assert_eq!(report.envelopes, 0);
    }

    #[test]
    fn in_flight_envelopes_drop_exactly_once_on_teardown() {
        // Mid-flight Stop: batches still on the lanes when everything
        // drops must free their envelopes exactly once (the SPSC ring
        // drains `[head, tail)` on drop; pooled buffers are plain Vecs).
        let token = std::sync::Arc::new(());
        let (mut hubs, inboxes) = lane_matrix(2, 8);
        for i in 0..4u32 {
            hubs[0]
                .send(Envelope {
                    from: ProcessId(0),
                    to: ProcessId(i),
                    sent_tick: 0,
                    due_tick: 1,
                    msg: std::sync::Arc::clone(&token),
                })
                .unwrap();
        }
        let _ = hubs[1].send_batch(
            0,
            vec![Envelope {
                from: ProcessId(1),
                to: ProcessId(0),
                sent_tick: 0,
                due_tick: 1,
                msg: std::sync::Arc::clone(&token),
            }],
        );
        assert_eq!(std::sync::Arc::strong_count(&token), 6);
        drop(inboxes);
        drop(hubs);
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
    }

    /// A fixed stream of sends through a lossy, jittered router, flushed
    /// after every tick: each send's fate folded through one `FxHasher`,
    /// and the envelopes each worker's inbox receives through another.
    /// One sender's sends come in non-adjacent runs within a tick (1, 4,
    /// 1, 6, 1 — what the cached sender prefix has to get right), a
    /// tick's last sender is the next tick's first (the prefix is per
    /// tick too), and an edge repeats within a tick, so occurrences
    /// count.
    fn router_digests() -> (u64, u64) {
        use std::hash::Hasher as _;
        let channel = ChannelConfig::reliable()
            .with_success_probability(0.9)
            .with_latency(Latency::UniformRounds { min: 1, max: 3 });
        let (mut hubs, mut inboxes) = lane_matrix::<u8>(2, 64);
        let mut router = FaultyRouter::new(hubs.remove(0), channel, 42);
        let mut fates = da_core::FxHasher::default();
        let mut shipped = da_core::FxHasher::default();
        for tick in [0u64, 1, 2, 5, 9, 10] {
            let t = tick as u32;
            let sends = [
                (1, 2),
                (1, 3 + t),
                (4, 2),
                (1, 2),
                (1, 5),
                (6, 1),
                (6, 1),
                (1, 2),
                (u32::MAX, 0),
                (1, u32::MAX),
            ];
            for (from, to) in sends {
                match router.send(ProcessId(from), ProcessId(to), tick, 0) {
                    NetFate::Deliver { latency } => fates.write_u64(latency),
                    NetFate::Lost => fates.write_u64(0),
                    NetFate::Severed => unreachable!("no partition is scripted"),
                }
            }
            router.flush();
            for inbox in &mut inboxes {
                inbox.sweep(|_, e| {
                    shipped.write_u32(e.from.0);
                    shipped.write_u32(e.to.0);
                    shipped.write_u64(e.sent_tick);
                    shipped.write_u64(e.due_tick);
                });
            }
        }
        (fates.finish(), shipped.finish())
    }

    /// Draw-order v3 through the router, bit for bit: the fate of every
    /// send of [`router_digests`]' stream. A change to the value re-rolls
    /// every live fate and is a new draw-order version.
    #[test]
    fn router_fates_match_their_pinned_digest() {
        assert_eq!(router_digests().0, 0x9dfb_8418_58c8_2704);
    }

    /// What a full [`FaultyRouter::flush`] hands each worker, and in
    /// which order, for [`router_digests`]' stream: every survivor,
    /// whatever its due tick. Since the router holds survivors on a
    /// wheel, a flush ships them in (due tick, send) order; it shipped
    /// them in send order before (`0x7afd_bdf0_6ffe_ff26`), the same
    /// envelopes per flush.
    #[test]
    fn router_shipping_matches_its_pinned_digest() {
        assert_eq!(router_digests().1, 0x021a_decb_2e8f_8f93);
    }
}
