//! The deterministic flight recorder's vocabulary: causal trace events,
//! the recording configuration both substrates' config builders embed,
//! and the canonical ordering + first-divergence diagnosis the harness
//! uses to explain parity failures.
//!
//! A [`TraceEvent`] records one decision the substrate made about one
//! message (or one lifecycle transition of one process): the tick it
//! happened on, the edge it concerns, a payload id, and a
//! [`TraceVerdict`] naming the [`EnvelopeLedger`](crate::EnvelopeLedger)
//! slot it sits beside ([`EnvelopeLedger::count`](crate::EnvelopeLedger::count)
//! reads a slot by its verdict, and both substrates fill the one struct,
//! so their streams compare directly). The totals are the ledger's
//! alone; the recorder keeps no count table of its own.
//!
//! Recording is zero-cost when off: both engines hold an
//! `Option<TraceRecorder>`-shaped slot that is `None` unless the
//! [`TraceConfig`] enables tracing, so the hot path pays one branch.
//! When enabled, [`TraceRecorder::record`] is an unsynchronised append
//! into a bounded per-stripe buffer (overflow is counted, never
//! blocking). The recorder keeps its events: the simulator and each
//! live worker turn theirs into a [`TraceLog`](crate::TraceLog) on
//! request, so the capacity bound is applied once, here, on both.
//!
//! Diagnosis: [`canonicalize`] sorts a stream into the substrate-neutral
//! order (tick, verdict, from, to, payload) — erasing the live runtime's
//! nondeterministic within-tick delivery interleaving — and
//! [`first_divergence`] reports the first event where two canonical
//! streams disagree.

use crate::process::ProcessId;
use std::fmt;

/// Default per-recorder event capacity (events beyond this are counted
/// in [`TraceRecorder::dropped`] rather than stored).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// What happened to one message (or one process). Each envelope verdict
/// has its slot in the [`EnvelopeLedger`](crate::EnvelopeLedger); the
/// pool's bulk losses (`dropped_closed`, `dropped_shutdown`) have no
/// verdict: no per-envelope identity is left to trace.
///
/// The variant order is the canonical tie-break order used by
/// [`canonicalize`]: within a tick, sends sort before deliveries, which
/// sort before drops, which sort before lifecycle transitions.
///
/// ```
/// use da_core::trace::TraceVerdict;
/// assert_eq!(TraceVerdict::DroppedCrashed.to_string(), "dropped_crashed");
/// assert!(TraceVerdict::Sent < TraceVerdict::Delivered);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceVerdict {
    /// The protocol handed the message to the transport (`sent`).
    Sent,
    /// The message reached its destination's protocol hook
    /// (`delivered`).
    Delivered,
    /// The channel's Bernoulli loss draw failed (`dropped_channel`).
    DroppedChannel,
    /// A partition cut severed the edge at the send tick
    /// (`dropped_partitioned`).
    DroppedPartitioned,
    /// The destination was crashed at delivery time (`dropped_crashed`).
    DroppedCrashed,
    /// A per-observer failure draw made the destination treat the sender
    /// as failed (`dropped_observed`).
    DroppedObserved,
    /// The process crashed this tick, by churn (`churn_crashes`) or by
    /// a scripted fate (no count).
    Crashed,
    /// The process recovered this tick, by churn (`churn_recoveries`)
    /// or by a scripted fate (no count).
    Recovered,
}

impl TraceVerdict {
    /// The snake_case name used in JSONL exports.
    #[must_use]
    fn label(self) -> &'static str {
        match self {
            TraceVerdict::Sent => "sent",
            TraceVerdict::Delivered => "delivered",
            TraceVerdict::DroppedChannel => "dropped_channel",
            TraceVerdict::DroppedPartitioned => "dropped_partitioned",
            TraceVerdict::DroppedCrashed => "dropped_crashed",
            TraceVerdict::DroppedObserved => "dropped_observed_failed",
            TraceVerdict::Crashed => "crashed",
            TraceVerdict::Recovered => "recovered",
        }
    }
}

impl fmt::Display for TraceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How much the flight recorder captures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TraceMode {
    /// No recorder is allocated; the hot path pays one branch on a
    /// `None`.
    #[default]
    Off,
    /// Histograms, no event buffer.
    CountersOnly,
    /// Histograms plus the bounded causal event stream.
    Full,
}

/// Flight-recorder configuration, hung off both substrates' config
/// builders (`SimConfig::with_trace` / `RuntimeConfig::with_trace`).
///
/// ```
/// use da_core::trace::TraceConfig;
///
/// let cfg = TraceConfig::full().with_capacity(1024);
/// assert!(cfg.is_enabled());
/// assert_eq!(cfg.capacity, 1024);
/// assert!(TraceConfig::counters_only().is_enabled());
/// assert!(!TraceConfig::off().is_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Recording mode (default [`TraceMode::Off`]).
    pub mode: TraceMode,
    /// Per-recorder event capacity; overflow is counted, not stored.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing disabled (the default): no recorder is allocated.
    #[must_use]
    pub fn off() -> Self {
        TraceConfig {
            mode: TraceMode::Off,
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Histograms, no event buffer.
    #[must_use]
    pub fn counters_only() -> Self {
        TraceConfig {
            mode: TraceMode::CountersOnly,
            ..TraceConfig::off()
        }
    }

    /// Full causal event recording.
    #[must_use]
    pub fn full() -> Self {
        TraceConfig {
            mode: TraceMode::Full,
            ..TraceConfig::off()
        }
    }

    /// Replaces the per-recorder event capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// True unless the mode is [`TraceMode::Off`].
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// True when the mode stores the event stream itself
    /// ([`TraceMode::Full`]).
    fn records_events(&self) -> bool {
        self.mode == TraceMode::Full
    }
}

/// One recorded decision: what happened to one message on one edge at
/// one tick (or, for lifecycle verdicts, to one process — then `from`
/// and `to` are both that process and `payload` is zero).
///
/// `payload` is the message's wire size in bytes — the only payload
/// identity both substrates can agree on without touching the protocol's
/// message type.
///
/// ```
/// use da_core::trace::{TraceEvent, TraceVerdict};
/// use da_core::ProcessId;
///
/// let e = TraceEvent {
///     tick: 3,
///     from: ProcessId(0),
///     to: ProcessId(7),
///     payload: 12,
///     verdict: TraceVerdict::Delivered,
/// };
/// assert_eq!(e.to_string(), "t3 p0→p7 delivered [12B]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Round (simulator) or tick (runtime) the decision was made on.
    /// Drop-at-delivery verdicts stamp the *delivery* tick.
    pub tick: u64,
    /// Sending process (for lifecycle verdicts: the process itself).
    pub from: ProcessId,
    /// Destination process (for lifecycle verdicts: the process itself).
    pub to: ProcessId,
    /// Wire size of the message in bytes (zero for lifecycle verdicts).
    pub payload: u64,
    /// What happened.
    pub verdict: TraceVerdict,
}

impl TraceEvent {
    /// A lifecycle event (crash or recovery) for `pid` at `tick`.
    #[must_use]
    pub fn lifecycle(tick: u64, pid: ProcessId, verdict: TraceVerdict) -> Self {
        TraceEvent {
            tick,
            from: pid,
            to: pid,
            payload: 0,
            verdict,
        }
    }

    /// The canonical sort key: (tick, verdict, from, to, payload). Ticks
    /// order causally; everything after erases scheduler-dependent
    /// within-tick interleaving.
    #[must_use]
    pub fn sort_key(&self) -> (u64, TraceVerdict, u32, u32, u64) {
        (
            self.tick,
            self.verdict,
            self.from.0,
            self.to.0,
            self.payload,
        )
    }

    /// One JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tick\":{},\"from\":{},\"to\":{},\"payload\":{},\"verdict\":\"{}\"}}",
            self.tick,
            self.from.0,
            self.to.0,
            self.payload,
            self.verdict.label()
        )
    }
}

impl PartialOrd for TraceEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TraceEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{} {}→{} {} [{}B]",
            self.tick, self.from, self.to, self.verdict, self.payload
        )
    }
}

/// The first position where two canonical trace streams disagree.
///
/// `left`/`right` are the events at [`TraceDivergence::index`] in each
/// stream; `None` means that stream ended first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Index into both canonical streams.
    pub index: usize,
    /// The left stream's event at `index`, if any.
    pub left: Option<TraceEvent>,
    /// The right stream's event at `index`, if any.
    pub right: Option<TraceEvent>,
}

impl fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |e: &Option<TraceEvent>| match e {
            Some(e) => e.to_string(),
            None => "<stream ended>".to_string(),
        };
        write!(
            f,
            "first divergence at event {}: left {} vs right {}",
            self.index,
            side(&self.left),
            side(&self.right)
        )
    }
}

/// Sorts a stream into the canonical substrate-neutral order
/// ([`TraceEvent::sort_key`]).
pub fn canonicalize(events: &mut [TraceEvent]) {
    events.sort_unstable();
}

/// Reports the first event where two *canonical* streams disagree, or
/// `None` when they are identical. Canonicalize both sides first.
#[must_use]
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<TraceDivergence> {
    let shared = left.len().min(right.len());
    for index in 0..shared {
        if left[index] != right[index] {
            return Some(TraceDivergence {
                index,
                left: Some(left[index]),
                right: Some(right[index]),
            });
        }
    }
    if left.len() != right.len() {
        return Some(TraceDivergence {
            index: shared,
            left: left.get(shared).copied(),
            right: right.get(shared).copied(),
        });
    }
    None
}

/// Renders a stream as JSONL: one [`TraceEvent::to_json`] object per
/// line, trailing newline included when non-empty.
#[must_use]
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// The per-stripe recording buffer: an unsynchronised append on the hot
/// path, bounded by the configured capacity, and nothing at all in
/// [`TraceMode::CountersOnly`].
///
/// Construct through [`TraceRecorder::new`], which returns `None` for a
/// disabled config — the substrates store that `Option` directly, so
/// disabled tracing costs one branch per decision.
///
/// ```
/// use da_core::trace::{TraceConfig, TraceEvent, TraceRecorder, TraceVerdict};
/// use da_core::ProcessId;
///
/// assert!(TraceRecorder::new(&TraceConfig::off()).is_none());
///
/// let mut rec = TraceRecorder::new(&TraceConfig::full()).unwrap();
/// rec.record(TraceEvent {
///     tick: 0,
///     from: ProcessId(0),
///     to: ProcessId(1),
///     payload: 4,
///     verdict: TraceVerdict::Sent,
/// });
/// assert_eq!(rec.events().len(), 1);
/// assert_eq!(rec.dropped(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    config: TraceConfig,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder for `config`, or `None` when tracing is off.
    #[must_use]
    pub fn new(config: &TraceConfig) -> Option<Self> {
        if !config.is_enabled() {
            return None;
        }
        Some(TraceRecorder {
            config: *config,
            events: Vec::new(),
            dropped: 0,
        })
    }

    /// Records one event: in [`TraceMode::Full`], appends it to the
    /// buffer (counting overflow beyond the capacity instead of storing
    /// it).
    pub fn record(&mut self, event: TraceEvent) {
        if self.config.records_events() {
            if self.events.len() < self.config.capacity {
                self.events.push(event);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// The buffered events (empty in [`TraceMode::CountersOnly`]).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events lost to the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, from: u32, to: u32, payload: u64, verdict: TraceVerdict) -> TraceEvent {
        TraceEvent {
            tick,
            from: ProcessId(from),
            to: ProcessId(to),
            payload,
            verdict,
        }
    }

    /// Every verdict, in canonical order: the six a message can meet,
    /// then the two lifecycle transitions.
    const VERDICTS: [TraceVerdict; 8] = [
        TraceVerdict::Sent,
        TraceVerdict::Delivered,
        TraceVerdict::DroppedChannel,
        TraceVerdict::DroppedPartitioned,
        TraceVerdict::DroppedCrashed,
        TraceVerdict::DroppedObserved,
        TraceVerdict::Crashed,
        TraceVerdict::Recovered,
    ];

    /// The six verdicts a message can meet each read a slot of their own
    /// in the envelope ledger; the lifecycle transitions read none.
    #[test]
    fn verdicts_map_to_ledger_categories() {
        let ledger = crate::EnvelopeLedger {
            sent: 1,
            delivered: 2,
            dropped_channel: 3,
            dropped_partitioned: 4,
            dropped_crashed: 5,
            dropped_observed: 6,
            bytes_sent: 7,
            dropped_closed: 8,
            dropped_shutdown: 9,
            churn_crashes: 10,
            churn_recoveries: 11,
        };
        let slots = VERDICTS.map(|verdict| ledger.count(verdict));
        let envelope = [1, 2, 3, 4, 5, 6].map(Some);
        assert_eq!(slots[..6], envelope);
        assert_eq!(slots[6..], [None, None]);
    }

    #[test]
    fn config_defaults_to_off_with_all_categories() {
        let cfg = TraceConfig::default();
        assert!(!cfg.is_enabled());
        assert!(!cfg.records_events());
        assert_eq!(cfg.capacity, DEFAULT_TRACE_CAPACITY);
        // Switched on, it records every verdict: there is no filter.
        let mut rec = TraceRecorder::new(&TraceConfig::full()).unwrap();
        for v in VERDICTS {
            rec.record(ev(0, 0, 1, 4, v));
        }
        let recorded: Vec<TraceVerdict> = rec.events().iter().map(|e| e.verdict).collect();
        assert_eq!(recorded, VERDICTS);
    }

    #[test]
    fn counters_only_buffers_nothing() {
        let mut rec = TraceRecorder::new(&TraceConfig::counters_only()).unwrap();
        rec.record(ev(0, 0, 1, 4, TraceVerdict::Sent));
        rec.record(ev(1, 0, 1, 4, TraceVerdict::Delivered));
        assert!(rec.events().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn capacity_overflow_is_counted_not_stored() {
        let mut rec = TraceRecorder::new(&TraceConfig::full().with_capacity(2)).unwrap();
        for tick in 0..5 {
            rec.record(ev(tick, 0, 1, 4, TraceVerdict::Sent));
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn canonical_order_erases_interleaving() {
        let mut a = vec![
            ev(1, 3, 0, 4, TraceVerdict::Delivered),
            ev(0, 0, 3, 4, TraceVerdict::Sent),
            ev(1, 1, 0, 4, TraceVerdict::Delivered),
        ];
        let mut b = vec![
            ev(1, 1, 0, 4, TraceVerdict::Delivered),
            ev(1, 3, 0, 4, TraceVerdict::Delivered),
            ev(0, 0, 3, 4, TraceVerdict::Sent),
        ];
        canonicalize(&mut a);
        canonicalize(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].verdict, TraceVerdict::Sent, "tick 0 first");
    }

    #[test]
    fn first_divergence_pinpoints_the_difference() {
        let base = vec![
            ev(0, 0, 1, 4, TraceVerdict::Sent),
            ev(1, 0, 1, 4, TraceVerdict::Delivered),
        ];
        assert_eq!(first_divergence(&base, &base), None);

        let mut lossy = base.clone();
        lossy[1].verdict = TraceVerdict::DroppedChannel;
        let d = first_divergence(&base, &lossy).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.left.unwrap().verdict, TraceVerdict::Delivered);
        assert_eq!(d.right.unwrap().verdict, TraceVerdict::DroppedChannel);

        let shorter = &base[..1];
        let d = first_divergence(shorter, &base).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.left, None);
        assert_eq!(d.right, Some(base[1]));
    }

    #[test]
    fn first_divergence_empty_vs_empty_is_none() {
        assert_eq!(first_divergence(&[], &[]), None);
    }

    #[test]
    fn first_divergence_empty_vs_nonempty_points_at_index_zero() {
        // The degenerate prefix case: an empty stream against anything
        // non-empty diverges at index 0 with exactly one side present.
        let stream = vec![ev(0, 0, 1, 4, TraceVerdict::Sent)];
        let d = first_divergence(&[], &stream).unwrap();
        assert_eq!(d.index, 0);
        assert_eq!(d.left, None);
        assert_eq!(d.right, Some(stream[0]));

        let d = first_divergence(&stream, &[]).unwrap();
        assert_eq!(d.index, 0);
        assert_eq!(d.left, Some(stream[0]));
        assert_eq!(d.right, None);
        // The rendering never says "event -1" or similar off-by-one.
        assert!(format!("{d}").starts_with("first divergence at event 0"));
    }

    #[test]
    fn first_divergence_proper_prefix_diverges_at_shorter_length() {
        // Streams where one is a proper prefix of the other must
        // diverge exactly at the shorter length — not shorter-1 (the
        // last shared event is equal) and not shorter+1 (out of range).
        let long: Vec<TraceEvent> = (0..4).map(|t| ev(t, 0, 1, t, TraceVerdict::Sent)).collect();
        for cut in 0..long.len() {
            let short = &long[..cut];
            let d = first_divergence(short, &long).unwrap();
            assert_eq!(d.index, cut, "prefix of length {cut}");
            assert_eq!(d.left, None);
            assert_eq!(d.right, Some(long[cut]));
            // And symmetrically.
            let d = first_divergence(&long, short).unwrap();
            assert_eq!(d.index, cut);
            assert_eq!(d.left, Some(long[cut]));
            assert_eq!(d.right, None);
        }
    }

    #[test]
    fn first_divergence_equal_length_streams() {
        // Equal-length identical streams: no divergence, whatever the
        // length. Equal-length different streams: index of the first
        // differing event, both sides present.
        let a: Vec<TraceEvent> = (0..3).map(|t| ev(t, 0, 1, 7, TraceVerdict::Sent)).collect();
        assert_eq!(first_divergence(&a, &a.clone()), None);
        let mut b = a.clone();
        b[2].payload = 8;
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.index, 2);
        assert_eq!(d.left.unwrap().payload, 7);
        assert_eq!(d.right.unwrap().payload, 8);
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let events = vec![
            ev(0, 0, 1, 4, TraceVerdict::Sent),
            ev(1, 0, 1, 4, TraceVerdict::Delivered),
        ];
        let jsonl = events_to_jsonl(&events);
        assert_eq!(
            jsonl,
            "{\"tick\":0,\"from\":0,\"to\":1,\"payload\":4,\"verdict\":\"sent\"}\n\
             {\"tick\":1,\"from\":0,\"to\":1,\"payload\":4,\"verdict\":\"delivered\"}\n"
        );
        assert!(events_to_jsonl(&[]).is_empty());
    }

    #[test]
    fn divergence_display_reads_both_sides() {
        let d = TraceDivergence {
            index: 5,
            left: Some(ev(2, 0, 1, 4, TraceVerdict::Delivered)),
            right: None,
        };
        let text = d.to_string();
        assert!(text.contains("event 5"));
        assert!(text.contains("t2 p0→p1 delivered [4B]"));
        assert!(text.contains("<stream ended>"));
    }
}
