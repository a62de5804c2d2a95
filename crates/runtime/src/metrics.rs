//! The sharded metrics registry and the sharded flight-recorder sink.
//!
//! The simulator owns a single `Counters` registry because it is
//! single-threaded. Live, every worker counting into one shared registry
//! would serialise the hot path on a lock — and even per-worker
//! `Mutex<Counters>` shards would put an atomic acquire/release plus a
//! shared cache line on every `bump`. Each worker instead owns a plain,
//! unsynchronised `Counters` and [publishes](ShardedCounters::publish) a snapshot of it
//! into its shard once per tick; [`ShardedCounters::merged`] folds the
//! shards into one registry with the same names the harness already
//! reads. The hot path is a plain array increment; the per-tick publish
//! is a value `memcpy` whenever the counter set has not grown
//! ([`Counters::copy_values_from`]).
//!
//! [`TraceSink`] gives the flight recorder the same lifecycle: each
//! worker appends trace events into an unsynchronised
//! `da_core::trace::TraceRecorder` it owns, and drains it into its sink
//! shard at tick boundaries; [`TraceSink::merged`] folds the shards into
//! one [`TraceLog`] at shutdown.
//!
//! # Lock poisoning
//!
//! Shard mutexes only ever guard *snapshots* — plain `u64` counter
//! values, copied trace events, cloned histograms — so a thread that
//! panics while holding one cannot leave partially-updated state that
//! later readers would misinterpret. Both sinks therefore *recover* from
//! a poisoned shard lock (`PoisonError::into_inner`) instead of
//! propagating the panic: the merged view stays available while the
//! runtime tears down after a worker panic, which is exactly when the
//! diagnostics matter most.

use da_core::trace::{TraceConfig, TraceEvent, TraceRecorder, TraceVerdict};
use da_core::{Counters, Histogram, StripeTrace, TraceLog};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Error returned when a publish names a worker index outside the shard
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutOfRange {
    /// The offending worker index.
    pub worker: usize,
    /// Number of shards the sink actually has.
    pub shards: usize,
}

impl fmt::Display for ShardOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {} out of range for {} metric shard(s)",
            self.worker, self.shards
        )
    }
}

impl std::error::Error for ShardOutOfRange {}

/// Per-worker counter snapshots with on-demand merging.
///
/// Workers count into registries they own outright and push snapshots
/// here at tick boundaries, so a merged read is at most one tick stale
/// per worker — exact again whenever the pool is idle (between driver
/// calls, and at shutdown after the final publish).
///
/// ```
/// use da_runtime::ShardedCounters;
/// use da_core::Counters;
///
/// let sharded = ShardedCounters::new(2);
/// let mut local = Counters::new(); // worker 0's owned registry
/// local.bump("rt.sent");
/// sharded.publish(0, &local).unwrap();
/// local.add_named("rt.sent", 2);
/// sharded.publish(0, &local).unwrap();
/// assert_eq!(sharded.merged().get("rt.sent"), 3, "snapshots replace, not add");
/// assert!(sharded.publish(7, &local).is_err(), "out of range is an error");
/// ```
#[derive(Debug)]
pub struct ShardedCounters {
    shards: Vec<Mutex<Counters>>,
}

impl ShardedCounters {
    /// Creates `shards` empty shards (at least one).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        ShardedCounters {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Counters::new()))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Replaces shard `worker`'s snapshot with the current state of that
    /// worker's owned registry. Values are copied in place when the
    /// counter set has not grown since the last publish (the common
    /// case: counter names stabilise after the first few ticks), and
    /// cloned wholesale when it has.
    ///
    /// A poisoned shard lock is recovered, not propagated — see the
    /// module docs on why that is safe here.
    ///
    /// # Errors
    ///
    /// Returns [`ShardOutOfRange`] when `worker` is not a valid shard
    /// index (the snapshot is not published anywhere).
    pub fn publish(&self, worker: usize, local: &Counters) -> Result<(), ShardOutOfRange> {
        let Some(slot) = self.shards.get(worker) else {
            return Err(ShardOutOfRange {
                worker,
                shards: self.shards.len(),
            });
        };
        let mut shard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if shard.len() == local.len() {
            shard.copy_values_from(local);
        } else {
            *shard = local.clone();
        }
        Ok(())
    }

    /// Folds every shard into one registry. A snapshot: each worker's
    /// contribution is its registry as of that worker's most recent
    /// [`ShardedCounters::publish`]. Poisoned shard locks are recovered,
    /// not propagated (see the module docs).
    #[must_use]
    pub fn merged(&self) -> Counters {
        let mut out = Counters::new();
        for shard in &self.shards {
            out.merge_from(&shard.lock().unwrap_or_else(PoisonError::into_inner));
        }
        out
    }
}

/// One worker's slot in the [`TraceSink`].
#[derive(Debug, Default)]
struct TraceShard {
    /// Drained events, appended publish after publish up to the sink
    /// capacity.
    events: Vec<TraceEvent>,
    /// Events this shard refused because the sink capacity was reached.
    overflow: u64,
    /// The publishing recorder's own overflow count (cumulative).
    recorder_dropped: u64,
    /// Cumulative per-verdict counts as of the last publish.
    counts: [u64; TraceVerdict::COUNT],
    /// Cloned worker histograms as of the last publish.
    histograms: Vec<(String, Histogram)>,
}

/// Per-worker flight-recorder shards, published at tick boundaries
/// exactly like [`ShardedCounters`] and folded into one [`TraceLog`] at
/// shutdown.
///
/// Each worker drains its owned `TraceRecorder` into its shard once per
/// tick ([`TraceSink::publish`] — an append under a per-shard lock no
/// other worker touches), keeping the recording hot path an
/// unsynchronised `Vec` push. The sink bounds the total events retained
/// per shard by the configured capacity; overflow is counted, never
/// blocking.
///
/// ```
/// use da_core::trace::{TraceConfig, TraceEvent, TraceRecorder, TraceVerdict};
/// use da_core::ProcessId;
/// use da_runtime::TraceSink;
///
/// let sink = TraceSink::new(2, &TraceConfig::full());
/// let mut rec = TraceRecorder::new(&TraceConfig::full()).unwrap();
/// rec.record(TraceEvent {
///     tick: 0,
///     from: ProcessId(0),
///     to: ProcessId(1),
///     payload: 4,
///     verdict: TraceVerdict::Sent,
/// });
/// sink.publish(0, &mut rec, &[]).unwrap();
/// let log = sink.merged();
/// assert_eq!(log.events.len(), 1);
/// assert_eq!(log.count(TraceVerdict::Sent), 1);
/// ```
#[derive(Debug)]
pub struct TraceSink {
    capacity: usize,
    shards: Vec<Mutex<TraceShard>>,
}

impl TraceSink {
    /// Creates one shard per worker (at least one), bounding retained
    /// events per shard by `config.capacity`.
    #[must_use]
    pub fn new(workers: usize, config: &TraceConfig) -> Self {
        TraceSink {
            capacity: config.capacity,
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(TraceShard::default()))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Drains `recorder` into shard `worker`: appends its buffered
    /// events (counting, not storing, anything beyond the sink
    /// capacity) and snapshots its cumulative per-verdict counts, its
    /// overflow count, and the given named histograms. Poisoned shard
    /// locks are recovered, not propagated (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ShardOutOfRange`] when `worker` is not a valid shard
    /// index (the recorder is left undrained).
    pub fn publish(
        &self,
        worker: usize,
        recorder: &mut TraceRecorder,
        histograms: &[(&str, &Histogram)],
    ) -> Result<(), ShardOutOfRange> {
        let Some(slot) = self.shards.get(worker) else {
            return Err(ShardOutOfRange {
                worker,
                shards: self.shards.len(),
            });
        };
        let mut shard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        for event in recorder.take_events() {
            if shard.events.len() < self.capacity {
                shard.events.push(event);
            } else {
                shard.overflow += 1;
            }
        }
        shard.recorder_dropped = recorder.dropped();
        shard.counts = *recorder.counts();
        shard.histograms = histograms
            .iter()
            .map(|(name, h)| ((*name).to_owned(), (*h).clone()))
            .collect();
        Ok(())
    }

    /// Folds every shard into one [`TraceLog`]: events concatenated in
    /// worker order (canonicalize before comparing streams), counts and
    /// overflow summed, histograms merged by name. Poisoned shard locks
    /// are recovered, not propagated.
    #[must_use]
    pub fn merged(&self) -> TraceLog {
        let mut log = TraceLog::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            log.events.extend_from_slice(&shard.events);
            log.dropped_events += shard.overflow + shard.recorder_dropped;
            for (mine, theirs) in log.verdict_counts.iter_mut().zip(shard.counts.iter()) {
                *mine += theirs;
            }
            for (name, h) in &shard.histograms {
                log.add_histogram(name, h);
            }
        }
        log
    }
}

/// What the pool adds to its stripe's flight recorder when tracing is
/// enabled: the trace histograms a worker samples per tick, and the
/// shared sink it drains the stripe's recorder into at tick boundaries.
///
/// The worker stores an `Option<WorkerTrace>` — `None` when tracing is
/// off, like the stripe's own trace state.
#[derive(Debug)]
pub(crate) struct WorkerTrace {
    /// Delay-wheel occupancy sampled once per tick after the inbox
    /// drain.
    pub wheel_occupancy: Histogram,
    /// How many ticks this worker ran ahead of its slowest peer's
    /// published frontier, sampled once per tick.
    pub watermark_lag: Histogram,
    /// Batches swept off the incoming SPSC lanes per tick (across all
    /// sweeps of that tick, pre-gate and final).
    pub lane_depth: Histogram,
    sink: Arc<TraceSink>,
}

impl WorkerTrace {
    /// A worker-side trace state for `config`, or `None` when tracing is
    /// off.
    pub fn new(config: &TraceConfig, sink: Arc<TraceSink>) -> Option<Self> {
        config.is_enabled().then(|| WorkerTrace {
            wheel_occupancy: Histogram::new(),
            watermark_lag: Histogram::new(),
            lane_depth: Histogram::new(),
            sink,
        })
    }

    /// Tick-boundary publish of the stripe's recorder and every
    /// histogram into the shared sink.
    ///
    /// # Panics
    ///
    /// Panics when `worker` is out of range — worker ids are assigned at
    /// spawn and always in range.
    pub fn publish(&self, worker: usize, stripe: &mut StripeTrace) {
        self.sink
            .publish(
                worker,
                &mut stripe.recorder,
                &[
                    ("delivery_latency_ticks", &stripe.delivery_latency),
                    ("wheel_occupancy", &self.wheel_occupancy),
                    ("watermark_lag", &self.watermark_lag),
                    ("lane_depth", &self.lane_depth),
                ],
            )
            .expect("worker id is in range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::ProcessId;

    #[test]
    fn merged_folds_all_shards() {
        let s = ShardedCounters::new(3);
        for i in 0..3 {
            let mut local = Counters::new();
            local.add_named("x", i as u64 + 1);
            s.publish(i, &local).unwrap();
        }
        assert_eq!(s.merged().get("x"), 6);
        assert_eq!(s.shards(), 3);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let s = ShardedCounters::new(0);
        assert_eq!(s.shards(), 1);
        assert!(s.merged().is_empty());
    }

    #[test]
    fn out_of_range_publish_is_an_error_not_a_panic() {
        let s = ShardedCounters::new(2);
        let local = Counters::new();
        let err = s.publish(2, &local).unwrap_err();
        assert_eq!(
            err,
            ShardOutOfRange {
                worker: 2,
                shards: 2
            }
        );
        assert!(err.to_string().contains("worker 2"));
        assert!(s.merged().is_empty(), "nothing was published");
    }

    #[test]
    fn merged_is_a_snapshot_of_last_publishes() {
        let s = ShardedCounters::new(2);
        let mut w0 = Counters::new();
        w0.bump("a");
        s.publish(0, &w0).unwrap();
        let snap = s.merged();
        // Worker 0 keeps counting but has not republished: invisible.
        w0.bump("a");
        let mut w1 = Counters::new();
        w1.bump("a");
        s.publish(1, &w1).unwrap();
        assert_eq!(snap.get("a"), 1);
        assert_eq!(s.merged().get("a"), 2, "w0's unpublished bump invisible");
        s.publish(0, &w0).unwrap();
        assert_eq!(s.merged().get("a"), 3);
    }

    #[test]
    fn publish_handles_growing_counter_sets() {
        let s = ShardedCounters::new(1);
        let mut local = Counters::new();
        local.bump("first");
        s.publish(0, &local).unwrap();
        local.bump("second"); // shape change: clone path
        local.bump("first");
        s.publish(0, &local).unwrap();
        let merged = s.merged();
        assert_eq!(merged.get("first"), 2);
        assert_eq!(merged.get("second"), 1);
    }

    #[test]
    fn shards_publish_concurrently() {
        let s = std::sync::Arc::new(ShardedCounters::new(4));
        std::thread::scope(|scope| {
            for w in 0..4 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    let mut local = Counters::new();
                    for _ in 0..1000 {
                        local.bump("hits");
                        s.publish(w, &local).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.merged().get("hits"), 4000);
    }

    #[test]
    fn poisoned_shard_recovers_with_last_snapshot() {
        let s = std::sync::Arc::new(ShardedCounters::new(1));
        let mut local = Counters::new();
        local.bump("before");
        s.publish(0, &local).unwrap();
        let poisoner = std::sync::Arc::clone(&s);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("poison the shard lock");
        })
        .join();
        // Reads and writes keep working on the recovered lock.
        assert_eq!(s.merged().get("before"), 1);
        local.bump("before");
        s.publish(0, &local).unwrap();
        assert_eq!(s.merged().get("before"), 2);
    }

    fn event(tick: u64, verdict: TraceVerdict) -> TraceEvent {
        TraceEvent {
            tick,
            from: ProcessId(0),
            to: ProcessId(1),
            payload: 4,
            verdict,
        }
    }

    #[test]
    fn trace_sink_folds_worker_shards() {
        let sink = TraceSink::new(2, &TraceConfig::full());
        let mut rec0 = TraceRecorder::new(&TraceConfig::full()).unwrap();
        let mut rec1 = TraceRecorder::new(&TraceConfig::full()).unwrap();
        rec0.record(event(0, TraceVerdict::Sent));
        rec1.record(event(1, TraceVerdict::Delivered));
        let mut latency = Histogram::new();
        latency.record(1);
        sink.publish(0, &mut rec0, &[("delivery_latency_ticks", &latency)])
            .unwrap();
        sink.publish(1, &mut rec1, &[("delivery_latency_ticks", &latency)])
            .unwrap();
        let log = sink.merged();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.count(TraceVerdict::Sent), 1);
        assert_eq!(log.count(TraceVerdict::Delivered), 1);
        assert_eq!(
            log.histogram("delivery_latency_ticks").unwrap().count(),
            2,
            "histograms merge by name across shards"
        );
        assert!(rec0.events().is_empty(), "publish drains the recorder");
    }

    #[test]
    fn trace_sink_publishes_are_cumulative_snapshots() {
        let sink = TraceSink::new(1, &TraceConfig::full());
        let mut rec = TraceRecorder::new(&TraceConfig::full()).unwrap();
        rec.record(event(0, TraceVerdict::Sent));
        sink.publish(0, &mut rec, &[]).unwrap();
        rec.record(event(1, TraceVerdict::Sent));
        sink.publish(0, &mut rec, &[]).unwrap();
        let log = sink.merged();
        assert_eq!(log.events.len(), 2, "events append across publishes");
        assert_eq!(
            log.count(TraceVerdict::Sent),
            2,
            "counts are snapshots of the cumulative recorder totals"
        );
    }

    #[test]
    fn trace_sink_caps_retained_events() {
        let config = TraceConfig::full().with_capacity(2);
        let sink = TraceSink::new(1, &config);
        let mut rec = TraceRecorder::new(&TraceConfig::full()).unwrap();
        for tick in 0..5 {
            rec.record(event(tick, TraceVerdict::Sent));
        }
        sink.publish(0, &mut rec, &[]).unwrap();
        let log = sink.merged();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped_events, 3);
        assert_eq!(log.count(TraceVerdict::Sent), 5);
    }

    #[test]
    fn trace_sink_rejects_out_of_range_worker() {
        let sink = TraceSink::new(1, &TraceConfig::full());
        let mut rec = TraceRecorder::new(&TraceConfig::full()).unwrap();
        rec.record(event(0, TraceVerdict::Sent));
        let err = sink.publish(3, &mut rec, &[]).unwrap_err();
        assert_eq!(err.shards, 1);
        assert_eq!(rec.events().len(), 1, "recorder left undrained");
    }

    #[test]
    fn worker_trace_requires_enabled_config() {
        let sink = Arc::new(TraceSink::new(1, &TraceConfig::full()));
        assert!(WorkerTrace::new(&TraceConfig::off(), Arc::clone(&sink)).is_none());
        let mut wt = WorkerTrace::new(&TraceConfig::full(), Arc::clone(&sink)).unwrap();
        let mut stripe = StripeTrace {
            recorder: TraceRecorder::new(&TraceConfig::full()).unwrap(),
            delivery_latency: Histogram::new(),
        };
        stripe.recorder.record(event(0, TraceVerdict::Sent));
        stripe.delivery_latency.record(1);
        wt.lane_depth.record(2);
        wt.publish(0, &mut stripe);
        assert!(stripe.recorder.events().is_empty());
        let log = sink.merged();
        assert_eq!(log.count(TraceVerdict::Sent), 1);
        assert_eq!(log.histogram("delivery_latency_ticks").unwrap().count(), 1);
        assert_eq!(log.histogram("lane_depth").unwrap().max(), 2);
    }
}
