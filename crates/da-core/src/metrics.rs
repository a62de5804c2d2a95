//! Interned counter registry, log-bucketed histograms, and the
//! [`TraceLog`] the flight recorder publishes into.
//!
//! Protocols label their traffic (e.g. `intra.t2`, `inter.t2->t1`) and the
//! harness reads the counters back after a run. Two kinds of handle keep
//! the per-message hot path an array increment: a [`CounterId`] is a slot
//! of *one* registry (the ledger's rendered names use them), a [`LabelId`]
//! is a name interned once per process — a protocol instance resolves its
//! labels at construction, holds 4-byte ids, and bumps through
//! [`Counters::bump_id`] in whichever registry the substrate hands it
//! (one per runtime worker). Name-keyed calls ([`Counters::register`],
//! [`Counters::bump`]) go through a [`KeyHasher`]-indexed map and stay
//! for set-up code and fixtures.
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
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// A counter name interned for the whole process: `Copy`, four bytes,
/// valid in every [`Counters`] registry.
///
/// Interning takes a lock and is meant for construction time; bumping
/// through the id ([`Counters::bump_id`], `Exec::bump_id`) and reading
/// the name back ([`LabelId::name`]) take none. Names are leaked, one
/// copy per distinct label, so a million processes of one group share
/// six strings instead of owning six each.
///
/// ```
/// use da_core::{Counters, LabelId};
/// let id = LabelId::intern("da.intra.t2");
/// assert_eq!(id, LabelId::intern("da.intra.t2"));
/// assert_eq!(id.name(), "da.intra.t2");
/// let mut c = Counters::new();
/// c.bump_id(id);
/// c.bump("da.intra.t2");
/// assert_eq!(c.get("da.intra.t2"), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(u32);

/// The interner's id → name table is a list of segments, segment `s`
/// holding `FIRST_SEGMENT << s` names: it grows without moving an entry,
/// so a reader needs no lock.
const FIRST_SEGMENT: u32 = 64;
const SEGMENTS: usize = 24;

type Segment = Box<[OnceLock<&'static str>]>;

/// `LabelId` → name, written under [`INTERNED`]'s lock, read lock-free.
static NAMES: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];
/// Name → `LabelId`.
static INTERNED: Mutex<HashMap<&'static str, LabelId, KeyBuildHasher>> =
    Mutex::new(HashMap::with_hasher(BuildHasherDefault::new()));

impl LabelId {
    /// Interns `name`, returning the id every earlier and later call with
    /// the same name returns.
    ///
    /// # Panics
    ///
    /// Panics after about a billion distinct labels.
    #[must_use]
    pub fn intern(name: &str) -> LabelId {
        // The map is only ever extended by one complete entry, so a
        // poisoned lock still guards a consistent table.
        let mut map = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = map.get(name) {
            return id;
        }
        let id = LabelId(u32::try_from(map.len()).expect("too many counter labels"));
        let (segment, offset) = id.locate();
        let name: &'static str = Box::leak(name.into());
        NAMES
            .get(segment)
            .expect("too many counter labels")
            .get_or_init(|| {
                (0..FIRST_SEGMENT << segment)
                    .map(|_| OnceLock::new())
                    .collect()
            })[offset]
            .set(name)
            .expect("label ids are handed out once");
        map.insert(name, id);
        id
    }

    /// The interned name.
    #[must_use]
    pub fn name(self) -> &'static str {
        let (segment, offset) = self.locate();
        NAMES[segment]
            .get()
            .and_then(|names| names[offset].get())
            .expect("a LabelId only comes from LabelId::intern")
    }

    /// Segment and offset of this id in [`NAMES`].
    fn locate(self) -> (usize, usize) {
        let at = self.0 / FIRST_SEGMENT + 1;
        let segment = at.ilog2();
        let offset = self.0 - FIRST_SEGMENT * ((1 << segment) - 1);
        (segment as usize, offset as usize)
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
    /// `slots[label]` is the index into `values` of an interned label
    /// this registry has counted, [`NO_SLOT`] otherwise. Process-local:
    /// it is keyed by [`LabelId`], which does not survive the process.
    slots: Vec<u32>,
}

/// `slots` entry of a label not yet bumped here — past the end of any
/// `values`, so the hot path needs no separate test for it.
const NO_SLOT: u32 = u32::MAX;

impl Counters {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    /// Registers (or looks up) a counter by name, returning its id.
    pub fn register(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = CounterId(u32::try_from(self.values.len()).expect("too many counters"));
        self.values.push(0);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
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

    /// Increments the counter of an interned label: an array increment
    /// once this registry has seen the label, a [`Counters::register`] of
    /// its name the first time — so a label costs a registry nothing
    /// until it is bumped there, and names appear in first-bump order
    /// exactly as with [`Counters::bump`].
    #[inline]
    pub fn bump_id(&mut self, label: LabelId) {
        let slot = self.slots.get(label.0 as usize).copied().unwrap_or(NO_SLOT);
        match self.values.get_mut(slot as usize) {
            Some(value) => *value += 1,
            None => self.bump_unseen(label),
        }
    }

    #[cold]
    fn bump_unseen(&mut self, label: LabelId) {
        let id = self.register(label.name());
        let at = label.0 as usize;
        if self.slots.len() <= at {
            self.slots.resize(at + 1, NO_SLOT);
        }
        self.slots[at] = id.0;
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

    #[test]
    fn labels_intern_once_and_keep_their_names_across_segments() {
        // More labels than the first two segments hold together.
        let names: Vec<String> = (0..4 * FIRST_SEGMENT)
            .map(|i| format!("test.segment.{i}"))
            .collect();
        let ids: Vec<LabelId> = names.iter().map(|n| LabelId::intern(n)).collect();
        for (name, &id) in names.iter().zip(&ids) {
            assert_eq!(id.name(), name);
            assert_eq!(LabelId::intern(name), id);
        }
        assert_eq!(LabelId(0).locate(), (0, 0));
        assert_eq!(LabelId(FIRST_SEGMENT - 1).locate().0, 0);
        assert_eq!(LabelId(FIRST_SEGMENT).locate(), (1, 0));
        assert_eq!(LabelId(3 * FIRST_SEGMENT - 1).locate().0, 1);
        assert_eq!(LabelId(3 * FIRST_SEGMENT).locate(), (2, 0));
    }

    #[test]
    fn bump_id_counts_like_bump_by_name() {
        let (a, b) = (LabelId::intern("test.id.a"), LabelId::intern("test.id.b"));
        let never = LabelId::intern("test.id.never");
        let mut by_id = Counters::new();
        let mut by_name = Counters::new();
        for label in [b, a, b] {
            by_id.bump_id(label);
            by_name.bump(label.name());
        }
        // One counter whichever way it is addressed, in first-bump order.
        by_id.bump("test.id.a");
        by_name.bump_id(a);
        assert_eq!(
            by_id.iter().collect::<Vec<_>>(),
            vec![("test.id.b", 2), ("test.id.a", 2)]
        );
        assert_eq!(by_id.to_string(), by_name.to_string());
        assert!(by_id.iter().all(|(name, _)| name != never.name()));
        // A clone keeps counting into the same slots.
        let mut copy = by_id.clone();
        copy.bump_id(b);
        assert_eq!(copy.get("test.id.b"), 3);
        assert_eq!(copy.len(), 2);
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
