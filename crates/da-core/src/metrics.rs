//! The protocols' typed [`Tally`], the named counter registry,
//! log-bucketed histograms, and the [`TraceLog`] the flight recorder
//! publishes into.
//!
//! A protocol counts its traffic through `Exec::count` into its stripe's
//! [`Tally`], one bounds-checked array increment per count; the harness
//! reads the tally's cells. [`Counters`] is keyed by name: fixtures bump
//! it, and `crate::ledger` renders the ledger and the tally into it for
//! the benchmark package.
//!
//! [`Histogram`] is the distribution-shaped companion to the counters
//! (delivery latency in ticks, delay-wheel occupancy, watermark lag):
//! power-of-two buckets, so recording is a `leading_zeros` plus an array
//! increment and merging is element-wise addition. [`TraceLog`] bundles
//! the flight recorder's output — causal events and named histograms —
//! with a JSONL exporter.

use crate::trace::{canonicalize, TraceEvent};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The digest fold: a multiply-xor hasher (the rustc-hash / FxHash
/// construction) that every pinned digest is computed with — the
/// simulator's `state_digest` (the model checker's visited-set key), the
/// protocols' unordered set folds and the seeded goldens. Those constants
/// fix its output for every `write` bit for bit, integers included, so
/// it is never a table's hasher: tables take [`KeyHasher`].
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = 0u64;
            for (i, b) in rest.iter().enumerate() {
                tail |= u64::from(*b) << (8 * i);
            }
            self.mix(tail);
        }
        self.mix(bytes.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The hasher of every table whose keys the program mints itself: event
/// ids, bootstrap `(origin, request)` pairs, packed edges, counter
/// labels. Short keys whose hashing dominates the lookup under the
/// default SipHash, so `write_u32` and `write_u64` are one inlined
/// multiply-xor each, by 2⁶⁴/φ — an event id is two. Not DoS-resistant:
/// never for keys from outside the program.
///
/// Tables → `KeyHasher`, digests → [`FxHasher`]: no constant pins what a
/// table hashes to, so this one is free to be fast.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// 2⁶⁴ / φ, odd: the Fibonacci-hashing multiplier.
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, word: u64) {
        // From the zero state this is `word * MULTIPLIER`.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasherDefault`] alias for [`KeyHasher`]-keyed tables.
pub type KeyBuildHasher = BuildHasherDefault<KeyHasher>;

/// Handle to a registered counter. Obtained from [`Counters::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Whose count a [`Tally`] cell holds, and the prefix of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// daMulticast (`da.*`), the one family that counts per topic group.
    Da,
    /// Gossip-based broadcast (`bc.*`).
    Broadcast,
    /// Gossip-based multicast (`mc.*`).
    Multicast,
    /// Hierarchical gossip-based broadcast (`hc.*`).
    Hierarchical,
    /// The metropolis flood (`metro.*`); the last family.
    Metro,
}

/// What a [`Tally`] cell counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Event messages gossiped inside the own group.
    Intra,
    /// Event messages sent to supertable entries.
    InterOut,
    /// Event messages that arrived from a strict subtopic group.
    InterIn,
    /// Events delivered to the application.
    Delivered,
    /// Events received more than once.
    Duplicate,
    /// Control-plane messages (bootstrap, maintenance, membership).
    Control,
    /// Receipts of an event the process has no interest in, under group 0.
    Parasite,
    /// Event messages sent through a baseline table of one group or none.
    Sent,
    /// Event messages sent through a hierarchical intra-group table.
    SentIntra,
    /// Event messages sent through a hierarchical inter-group table.
    SentInter,
    /// First receipts of a metropolis headline; the last kind.
    FirstDelivery,
}

/// Cells of a [`Tally`] row: one per family and kind.
pub(crate) const COLUMNS: usize = (Family::Metro as usize + 1) * KINDS;
pub(crate) const KINDS: usize = Kind::FirstDelivery as usize + 1;

/// Where `family`'s `kind` sits in a tally, at `group`.
const fn cell(family: Family, kind: Kind, group: usize) -> usize {
    group * COLUMNS + family as usize * KINDS + kind as usize
}

/// What the protocols of one stripe counted: a row per dense group key
/// (a `TopicId` index for daMulticast, 0 for every other family) and a
/// cell per [`Family`] and [`Kind`] in it. Two tallies are equal when
/// their cells are, whichever grew more rows.
///
/// ```
/// use da_core::{Family::Da, Kind::Intra, Tally};
/// let mut tally = Tally::default();
/// tally.count(Da, Intra, 2);
/// tally.count(Da, Intra, 0);
/// assert_eq!((tally.get(Da, Intra, 2), tally.get(Da, Intra, 9)), (1, 0));
/// assert_eq!(tally.total(Da, Intra), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Row after row, each [`COLUMNS`] cells.
    pub(crate) cells: Vec<u64>,
}

impl Tally {
    /// Counts one `kind` of `family` for `group`: an array increment once
    /// the group's row is there.
    #[inline]
    pub fn count(&mut self, family: Family, kind: Kind, group: usize) {
        let at = cell(family, kind, group);
        match self.cells.get_mut(at) {
            Some(count) => *count += 1,
            None => self.grow(at),
        }
    }

    #[cold]
    fn grow(&mut self, at: usize) {
        self.cells.resize(at / COLUMNS * COLUMNS + COLUMNS, 0);
        self.cells[at] += 1;
    }

    /// The count of `family`'s `kind` for `group`.
    #[must_use]
    pub fn get(&self, family: Family, kind: Kind, group: usize) -> u64 {
        let at = cell(family, kind, group);
        self.cells.get(at).copied().unwrap_or(0)
    }

    /// The count of `family`'s `kind` over every group.
    #[must_use]
    pub fn total(&self, family: Family, kind: Kind) -> u64 {
        let column = self.cells.iter().skip(cell(family, kind, 0));
        column.step_by(COLUMNS).sum()
    }

    /// The non-zero cells, by where they sit.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.cells
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, count)| count > 0)
    }
}

impl PartialEq for Tally {
    fn eq(&self, other: &Tally) -> bool {
        self.nonzero().eq(other.nonzero())
    }
}

impl Eq for Tally {}

impl std::ops::AddAssign<&Tally> for Tally {
    /// Cell-by-cell sum: how a pool adds up its workers' tallies.
    fn add_assign(&mut self, other: &Tally) {
        let len = self.cells.len().max(other.cells.len());
        self.cells.resize(len, 0);
        for (cell, count) in self.cells.iter_mut().zip(&other.cells) {
            *cell += count;
        }
    }
}

/// A registry of named monotonic counters.
///
/// ```
/// use da_core::Counters;
/// let mut c = Counters::new();
/// let id = c.register("intra.t2");
/// c.add(id, 3);
/// c.bump("intra.t2");
/// assert_eq!(c.get("intra.t2"), 4);
/// assert_eq!(c.get("never-registered"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counters {
    values: Vec<u64>,
    names: Vec<String>,
    index: HashMap<String, CounterId, KeyBuildHasher>,
}

impl Counters {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    /// Registers (or looks up) a counter by name, keeping an owned name.
    pub fn register(&mut self, name: impl AsRef<str> + Into<String>) -> CounterId {
        if let Some(&id) = self.index.get(name.as_ref()) {
            return id;
        }
        let id = CounterId(u32::try_from(self.values.len()).expect("too many counters"));
        let name = name.into();
        self.values.push(0);
        self.names.push(name.clone());
        self.index.insert(name, id);
        id
    }

    /// Adds `delta` to the counter behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.values[id.0 as usize] += delta;
    }

    /// Increments a counter by name, registering it on first use.
    pub fn bump(&mut self, name: &str) {
        let id = self.register(name);
        self.add(id, 1);
    }

    /// Adds `delta` to a counter by name, registering it on first use.
    pub fn add_named(&mut self, name: &str, delta: u64) {
        let id = self.register(name);
        self.add(id, delta);
    }

    /// Current value of a counter by name (0 when never registered).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map_or(0, |id| self.values[id.0 as usize])
    }

    /// Current value behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    #[must_use]
    pub fn value(&self, id: CounterId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Iterates over `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }

    /// Folds another registry into this one, adding value-by-name and
    /// registering names this registry has not seen. Used to merge the
    /// per-worker registries of a live run into one global snapshot.
    pub fn merge_from(&mut self, other: &Counters) {
        for (name, value) in other.iter() {
            self.add_named(name, value);
        }
    }

    /// Overwrites this registry's values with `other`'s, without
    /// touching names — the allocation-free path for republishing a
    /// snapshot of a registry this one was cloned from.
    ///
    /// Counters are append-only, so two registries with equal lengths
    /// that share a lineage (one was cloned from the other, or both from
    /// a common ancestor) are guaranteed to agree name-for-name; the
    /// name check is therefore a debug assertion, not a runtime cost.
    /// Registries of different lengths (new counters appeared since the
    /// last snapshot) must fall back to a full clone.
    ///
    /// # Panics
    ///
    /// Panics when the registries have different lengths (and, under
    /// debug assertions, when their registration orders diverge).
    pub fn copy_values_from(&mut self, other: &Counters) {
        assert_eq!(
            self.len(),
            other.len(),
            "copy_values_from requires identical registration sets"
        );
        debug_assert_eq!(self.names, other.names, "registries diverged");
        self.values.copy_from_slice(&other.values);
    }

    /// Sum over counters whose name starts with `prefix`.
    #[must_use]
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Number of registered counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no counter has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Counters ({} registered)", self.len())?;
        let mut sorted: Vec<(&str, u64)> = self.iter().collect();
        sorted.sort_by_key(|(name, _)| *name);
        for (name, value) in sorted {
            writeln!(f, "  {name}: {value}")?;
        }
        Ok(())
    }
}

/// Number of histogram buckets: one for zero plus one per possible bit
/// length of a `u64`.
const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Recording is branch-free (`leading_zeros` + array
/// increment), merging is element-wise addition — like the counters,
/// so the live runtime keeps one histogram per worker and folds them
/// whenever it is read.
///
/// ```
/// use da_core::Histogram;
/// let mut h = Histogram::new();
/// for v in [0, 1, 1, 3, 8] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 13);
/// assert_eq!(h.max(), 8);
/// assert!((h.mean() - 2.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum += value * n;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds every sample of `other` into this histogram.
    fn merge_from(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} mean={:.2} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

/// Everything one substrate's flight recorder captured during a run:
/// the causal event stream (bounded; overflow counted in
/// [`TraceLog::dropped_events`]) and named histograms, with a JSONL
/// exporter. Totals are read from [`Counters`].
///
/// Both substrates build one per stripe with
/// [`StripeTrace::log`](crate::StripeTrace::log); the live runtime
/// folds its workers' logs with [`TraceLog::merge_from`], exactly as it
/// folds their counters with [`Counters::merge_from`].
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// The recorded causal events, in capture order (NOT canonical —
    /// call [`TraceLog::canonical_events`] before comparing streams).
    pub events: Vec<TraceEvent>,
    /// Events lost to the recorder capacity bound.
    pub dropped_events: u64,
    /// Named distributions (e.g. `delivery_latency_ticks`,
    /// `wheel_occupancy`, `watermark_lag`).
    pub histograms: Vec<(String, Histogram)>,
}

impl TraceLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Adds (or merges into) a named histogram.
    pub fn add_histogram(&mut self, name: &str, histogram: &Histogram) {
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => existing.merge_from(histogram),
            None => self.histograms.push((name.to_owned(), histogram.clone())),
        }
    }

    /// Folds another log into this one: events appended after this
    /// log's (canonicalize before comparing streams), dropped counts
    /// summed, histograms merged by name. The pool
    /// folds its workers' logs this way, in worker-id order.
    pub fn merge_from(&mut self, other: &TraceLog) {
        self.events.extend_from_slice(&other.events);
        self.dropped_events += other.dropped_events;
        for (name, h) in &other.histograms {
            self.add_histogram(name, h);
        }
    }

    /// The event stream in canonical substrate-neutral order (a sorted
    /// copy; the capture order is preserved).
    #[must_use]
    pub fn canonical_events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.clone();
        canonicalize(&mut events);
        events
    }

    /// JSONL export of the capture-order event stream.
    fn to_jsonl(&self) -> String {
        crate::trace::events_to_jsonl(&self.events)
    }

    /// Writes the JSONL export to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TraceLog ({} events, {} dropped)",
            self.events.len(),
            self.dropped_events
        )?;
        for (name, h) in &self.histograms {
            writeln!(f, "  {name}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceVerdict;

    /// A histogram's non-empty buckets as `(lower_bound, count)` pairs,
    /// in ascending value order.
    fn buckets(h: &Histogram) -> impl Iterator<Item = (u64, u64)> + '_ {
        h.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
    }

    #[test]
    fn register_is_idempotent() {
        let mut c = Counters::new();
        let a = c.register("x");
        let b = c.register("x");
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn add_and_get() {
        let mut c = Counters::new();
        let id = c.register("msgs");
        c.add(id, 5);
        c.add(id, 2);
        assert_eq!(c.value(id), 7);
        assert_eq!(c.get("msgs"), 7);
    }

    #[test]
    fn bump_registers_lazily() {
        let mut c = Counters::new();
        c.bump("lazy");
        c.bump("lazy");
        assert_eq!(c.get("lazy"), 2);
    }

    /// A tally is its non-zero cells: a row grown and left empty, or
    /// counts made in another order, change nothing, and a sum adds
    /// cell by cell.
    #[test]
    fn tallies_compare_and_add_cell_by_cell() {
        use Family::{Da, Multicast};
        use Kind::{Intra, Sent};
        let mut a = Tally::default();
        a.count(Da, Intra, 0);
        a.count(Multicast, Sent, 0);
        let mut b = Tally::default();
        b.count(Da, Intra, 3);
        b.cells[3 * COLUMNS] = 0;
        b.count(Multicast, Sent, 0);
        b.count(Da, Intra, 0);
        assert_eq!(a, b, "b grew three rows more");
        b.count(Da, Intra, 3);
        assert_ne!(a, b);
        a += &b;
        assert_eq!((a.total(Da, Intra), a.get(Da, Intra, 0)), (3, 2));
        let cells: Vec<_> = a.nonzero().collect();
        let sent = Multicast as usize * KINDS + Sent as usize;
        assert_eq!(cells, [(0, 2), (sent, 2), (3 * COLUMNS, 1)]);
        assert_eq!(a.get(Multicast, Sent, 4), 0, "past the last row");
    }

    #[test]
    fn key_hasher_folds_bytes_like_words() {
        let hash = |feed: &dyn Fn(&mut KeyHasher)| {
            let mut h = KeyHasher::default();
            feed(&mut h);
            h.finish()
        };
        let key = 0x0000_0003_ffff_fffe_u64;
        let word = hash(&|h| h.write_u64(key));
        assert_eq!(word, key.wrapping_mul(KeyHasher::MULTIPLIER));
        assert_eq!(hash(&|h| h.write(&key.to_le_bytes())), word);
        // A ragged tail is folded, not dropped.
        let ragged = hash(&|h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]));
        assert_ne!(ragged, hash(&|h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8])));
        assert_ne!(ragged, hash(&|h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10])));
    }

    #[test]
    fn key_hasher_mixes_each_integer_once() {
        use std::hash::Hash;
        let mix = |state: u64, word: u64| {
            (state.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let mut h = KeyHasher::default();
        h.write_u32(u32::MAX);
        assert_eq!(h.finish(), mix(0, u64::from(u32::MAX)));
        h.write_u64(u64::MAX - 2);
        assert_eq!(h.finish(), mix(mix(0, u64::from(u32::MAX)), u64::MAX - 2));
        // An event id's shape, a pid then a sequence, is two mixes and
        // nothing else: no length, no padding.
        let mut h = KeyHasher::default();
        (crate::ProcessId(3), 9u64).hash(&mut h);
        assert_eq!(h.finish(), mix(mix(0, 3), 9));
    }

    #[test]
    fn unknown_name_reads_zero() {
        let c = Counters::new();
        assert_eq!(c.get("nope"), 0);
    }

    #[test]
    fn sum_prefix_aggregates() {
        let mut c = Counters::new();
        c.add_named("intra.t0", 1);
        c.add_named("intra.t1", 10);
        c.add_named("inter.t1", 100);
        assert_eq!(c.sum_prefix("intra."), 11);
        assert_eq!(c.sum_prefix("inter."), 100);
        assert_eq!(c.sum_prefix(""), 111);
    }

    #[test]
    fn merge_from_adds_and_registers() {
        let mut a = Counters::new();
        a.add_named("shared", 2);
        a.add_named("only_a", 1);
        let mut b = Counters::new();
        b.add_named("shared", 3);
        b.add_named("only_b", 7);
        a.merge_from(&b);
        assert_eq!(a.get("shared"), 5);
        assert_eq!(a.get("only_a"), 1);
        assert_eq!(a.get("only_b"), 7);
        // Merging an empty registry changes nothing.
        a.merge_from(&Counters::new());
        assert_eq!(a.sum_prefix(""), 13);
    }

    #[test]
    fn copy_values_from_overwrites_in_place() {
        let mut live = Counters::new();
        live.add_named("a", 3);
        live.add_named("b", 5);
        let mut snap = live.clone();
        live.add_named("a", 4);
        snap.copy_values_from(&live);
        assert_eq!(snap.get("a"), 7);
        assert_eq!(snap.get("b"), 5);
    }

    #[test]
    #[should_panic(expected = "identical registration sets")]
    fn copy_values_from_rejects_shape_changes() {
        let mut a = Counters::new();
        a.bump("x");
        let mut b = a.clone();
        b.bump("grew");
        a.copy_values_from(&b);
    }

    #[test]
    fn display_sorted_by_name() {
        let mut c = Counters::new();
        c.bump("b");
        c.bump("a");
        let s = c.to_string();
        let pos_a = s.find("a:").unwrap();
        let pos_b = s.find("b:").unwrap();
        assert!(pos_a < pos_b);
    }

    #[test]
    fn iter_in_registration_order() {
        let mut c = Counters::new();
        c.bump("z");
        c.bump("a");
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["z", "a"]);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let buckets: Vec<(u64, u64)> = buckets(&h).collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (1024, 1)]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn histogram_extremes_do_not_overflow_buckets() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        h.record_n(0, 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX / 2);
        h.record_n(7, 0);
        assert_eq!(h.count(), 4, "zero-sample record is a no-op");
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Histogram::new();
        b.record(1);
        b.record(7);
        a.merge_from(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 109);
        assert_eq!(a.max(), 100);
        let ones = buckets(&a).find(|&(lo, _)| lo == 1).unwrap();
        assert_eq!(ones.1, 2);
    }

    #[test]
    fn histogram_mean_handles_empty() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn trace_log_counts_and_histograms_roundtrip() {
        use crate::ProcessId;
        let mut log = TraceLog::new();
        log.events.push(TraceEvent {
            tick: 1,
            from: ProcessId(0),
            to: ProcessId(1),
            payload: 4,
            verdict: TraceVerdict::Delivered,
        });
        let mut h = Histogram::new();
        h.record(3);
        log.add_histogram("delivery_latency_ticks", &h);
        log.add_histogram("delivery_latency_ticks", &h);
        assert_eq!(log.histogram("delivery_latency_ticks").unwrap().count(), 2);
        assert!(log.histogram("nope").is_none());
        assert!(log.to_jsonl().contains("\"verdict\":\"delivered\""));
        let text = log.to_string();
        assert!(text.starts_with("TraceLog (1 events, 0 dropped)"));
        assert!(text.contains("delivery_latency_ticks"));
    }

    #[test]
    fn trace_log_merge_from_appends_sums_and_merges_by_name() {
        use crate::ProcessId;
        let log = |tick, verdict: TraceVerdict, extra: &str| {
            let mut log = TraceLog::new();
            log.events.push(TraceEvent {
                tick,
                from: ProcessId(0),
                to: ProcessId(1),
                payload: 4,
                verdict,
            });
            log.dropped_events = 2;
            let mut h = Histogram::new();
            h.record(tick);
            log.add_histogram("delivery_latency_ticks", &h);
            log.add_histogram(extra, &h);
            log
        };
        let (first, second) = (
            log(1, TraceVerdict::Sent, "a"),
            log(2, TraceVerdict::Delivered, "b"),
        );
        let mut folded = TraceLog::new();
        folded.merge_from(&first);
        folded.merge_from(&second);
        assert_eq!(folded.events, [first.events[0], second.events[0]]);
        assert_eq!(folded.dropped_events, 4);
        let names: Vec<&str> = folded.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["delivery_latency_ticks", "a", "b"]);
        assert_eq!(folded.histogram("delivery_latency_ticks").unwrap().sum(), 3);
    }

    #[test]
    fn trace_log_canonical_events_sorts_a_copy() {
        use crate::ProcessId;
        let ev = |tick, from: u32| TraceEvent {
            tick,
            from: ProcessId(from),
            to: ProcessId(0),
            payload: 1,
            verdict: TraceVerdict::Delivered,
        };
        let mut log = TraceLog::new();
        log.events = vec![ev(2, 1), ev(1, 9), ev(2, 0)];
        let canonical = log.canonical_events();
        assert_eq!(canonical, vec![ev(1, 9), ev(2, 0), ev(2, 1)]);
        assert_eq!(log.events[0], ev(2, 1), "capture order preserved");
    }
}
