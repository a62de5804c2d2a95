//! The sharded counter registry, [`ShardedCounters`], and its
//! [`ShardOutOfRange`] error, which the pool does not use.
//!
//! A registry the workers shared would serialise the hot path on a lock,
//! and per-worker `Mutex<Counters>` shards cost a lock and a copy per
//! worker per tick. Each worker instead counts into the plain tally and
//! counters of its own stripe and hands them over only when asked: a
//! read ([`Runtime::tally`](crate::Runtime::tally),
//! [`Runtime::counters`](crate::Runtime::counters)) travels the control
//! channel the pool already has, and
//! [`Runtime::shutdown`](crate::Runtime::shutdown) takes them back at
//! join. The two types stay because the benchmark package's
//! `metrics.shard_publish_ns` and `metrics.merged_us` probes measure
//! them; they retire together with those probes.
//!
//! # Lock poisoning
//!
//! A shard mutex only ever guards a *snapshot* — plain `u64` counter
//! values — so a thread that panics while holding one cannot leave
//! partially-updated state that later readers would misinterpret.
//! [`ShardedCounters`] therefore *recovers* from a poisoned shard lock
//! (`PoisonError::into_inner`) instead of propagating the panic: the
//! merged view stays readable after a publisher panicked.

use da_core::Counters;
use std::fmt;
use std::sync::{Mutex, PoisonError};

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

/// Per-publisher counter snapshots with on-demand merging.
///
/// Each publisher counts into a registry it owns outright and pushes
/// snapshots here, so a merged read is at most one publish stale per
/// publisher. The pool does not publish here (see the module docs): the
/// type stays for the benchmark's `metrics.*` probes.
///
/// ```
/// use da_runtime::ShardedCounters;
/// use da_core::Counters;
///
/// let sharded = ShardedCounters::new(2);
/// let mut local = Counters::new(); // worker 0's owned registry
/// local.bump("bc.sent");
/// sharded.publish(0, &local).unwrap();
/// local.add_named("bc.sent", 2);
/// sharded.publish(0, &local).unwrap();
/// assert_eq!(sharded.merged().get("bc.sent"), 3, "snapshots replace, not add");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, RuntimeConfig};
    use da_core::testkit::Relay;
    use da_core::trace::{TraceConfig, TraceVerdict};

    #[test]
    fn merged_folds_all_shards() {
        let s = ShardedCounters::new(3);
        for i in 0..3 {
            let mut local = Counters::new();
            local.add_named("x", i as u64 + 1);
            s.publish(i, &local).unwrap();
        }
        assert_eq!(s.merged().get("x"), 6);
        assert!(s.publish(3, &Counters::new()).is_err(), "three shards");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let s = ShardedCounters::new(0);
        assert!(s.publish(0, &Counters::new()).is_ok());
        assert!(s.publish(1, &Counters::new()).is_err(), "one shard");
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

    /// A traced pool over `Relay::ring(6, 3)`: 18 sends in ticks 0..3,
    /// each delivered one tick later.
    fn traced_relay(workers: usize, trace: TraceConfig) -> Runtime<Relay> {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(1)
            .with_trace(trace);
        Runtime::spawn(config, Relay::ring(6, 3))
    }

    const POOL_HISTOGRAMS: [&str; 4] = [
        "delivery_latency_ticks",
        "wheel_occupancy",
        "watermark_lag",
        "lane_depth",
    ];

    #[test]
    fn trace_sink_folds_worker_shards() {
        let mut rt = traced_relay(2, TraceConfig::full());
        rt.run_ticks(5);
        let log = rt.trace_log().expect("tracing is on");
        let ledger = rt.ledger();
        assert_eq!((ledger.sent, ledger.delivered), (18, 18));
        assert_eq!(log.events.len(), 36, "both workers' events");
        assert_eq!(log.dropped_events, 0);
        let names: Vec<&str> = log.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, POOL_HISTOGRAMS, "histograms merge by name");
        let latency = log.histogram("delivery_latency_ticks").unwrap();
        assert_eq!(latency.count(), ledger.delivered);
        assert_eq!(
            log.histogram("lane_depth").unwrap().count(),
            2 * 5,
            "one sample per tick from each of the two workers"
        );
    }

    #[test]
    fn trace_sink_publishes_are_cumulative_snapshots() {
        let mut rt = traced_relay(2, TraceConfig::full());
        rt.run_ticks(2);
        let early = rt.trace_log().expect("tracing is on");
        rt.run_ticks(2);
        let late = rt.trace_log().expect("tracing is on");
        let sent = |log: &da_core::TraceLog| {
            let sent = log
                .events
                .iter()
                .filter(|e| e.verdict == TraceVerdict::Sent);
            sent.count()
        };
        assert_eq!(sent(&early), 12);
        assert_eq!(sent(&late), 18);
        assert_eq!(early.histogram("lane_depth").unwrap().count(), 2 * 2);
        assert_eq!(late.histogram("lane_depth").unwrap().count(), 2 * 4);
        let before: Vec<_> = late
            .canonical_events()
            .into_iter()
            .filter(|e| e.tick < 2)
            .collect();
        assert_eq!(before, early.canonical_events(), "a read drains nothing");
    }

    #[test]
    fn trace_sink_caps_retained_events() {
        let mut rt = traced_relay(2, TraceConfig::full().with_capacity(2));
        rt.run_ticks(5);
        let log = rt.shutdown().trace.expect("tracing is on");
        assert_eq!(log.events.len(), 4, "two per worker");
        assert_eq!(log.dropped_events, 36 - 4);
    }

    #[test]
    fn worker_trace_requires_enabled_config() {
        let mut rt = traced_relay(2, TraceConfig::off());
        rt.run_ticks(2);
        assert!(rt.trace_log().is_none());
        assert!(rt.shutdown().trace.is_none());

        let mut rt = traced_relay(2, TraceConfig::counters_only());
        rt.run_ticks(2);
        let log = rt.trace_log().expect("tracing is on");
        assert!(log.events.is_empty(), "counters-only buffers nothing");
        let names: Vec<&str> = log.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, POOL_HISTOGRAMS);
    }
}
