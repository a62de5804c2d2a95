//! The network fault model both substrates consume: one channel,
//! scripted partitions and scripted drops.
//!
//! The paper's evaluation assumes i.i.d. per-edge loss (Sec. VII); the
//! one correlated fault added on top of it is a split-brain:
//!
//! * [`NetworkModel`] is the one type both substrates consume. Its
//!   uniform case wraps a plain [`ChannelConfig`] unchanged (and
//!   `From<ChannelConfig>` makes the upgrade implicit).
//! * [`PartitionSchedule`] scripts split-brain windows: an island of
//!   processes is *cut* from everyone else at a tick and optionally
//!   *healed* at a later tick. Messages crossing an active cut are
//!   dropped at send time.
//! * [`DropSchedule`] kills named sends, which is how a model-checking
//!   counterexample replays as an ordinary fault config.
//!
//! Determinism contract: whether a send is severed is a pure function of
//! the two endpoints and the send tick — it consumes **zero**
//! randomness — and the surviving sends draw their loss/latency fate
//! through the unchanged pinned-draw-order machinery of
//! [`ChannelConfig::sample_fate`]. One seed therefore yields identical
//! link fates on the simulator and the live runtime.

use crate::channel::{ChannelConfig, ChannelFate};
use crate::metrics::KeyBuildHasher;
use crate::process::ProcessId;
use crate::wheel::MAX_RING_TICKS;
use rand::Rng;
use std::collections::HashMap;

/// One scripted split-brain window: the island's processes are cut from
/// every process outside it from `cut_at` (inclusive) until `heal_at`
/// (exclusive), or forever when it never heals.
///
/// Two processes on the same side of the cut keep talking. A split into
/// several islands is several windows over the same ticks: isolating
/// `A` and isolating `B` splits the population into `A`, `B` and the
/// rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `island[i]` is true when `ProcessId(i)` is cut off; shorter than
    /// the population means the tail stays outside.
    island: Vec<bool>,
    /// First tick at which the cut applies.
    cut_at: u64,
    /// First tick at which the cut no longer applies (`None` = never
    /// heals).
    heal_at: Option<u64>,
}

impl Partition {
    /// A cut isolating `island` from everyone else, starting at `cut_at`
    /// and never healing (chain [`Partition::heal_at`] to script the
    /// re-merge).
    #[must_use]
    pub fn cut(island: impl IntoIterator<Item = ProcessId>, cut_at: u64) -> Self {
        let mut members = Vec::new();
        for pid in island {
            if members.len() <= pid.index() {
                members.resize(pid.index() + 1, false);
            }
            members[pid.index()] = true;
        }
        Partition {
            island: members,
            cut_at,
            heal_at: None,
        }
    }

    /// Heals the cut at `tick` (the first tick at which traffic flows
    /// again).
    ///
    /// # Panics
    ///
    /// Panics when `tick` is not after the cut.
    #[must_use]
    pub fn heal_at(mut self, tick: u64) -> Self {
        assert!(tick > self.cut_at, "a partition must heal after its cut");
        self.heal_at = Some(tick);
        self
    }

    /// True when the cut is in force at `tick`.
    fn active_at(&self, tick: u64) -> bool {
        tick >= self.cut_at && self.heal_at.is_none_or(|h| tick < h)
    }

    /// True when `pid` is on the island.
    fn isolates(&self, pid: ProcessId) -> bool {
        self.island.get(pid.index()).copied().unwrap_or(false)
    }

    /// True when this partition severs `a` from `b` at `tick`: the cut
    /// is active and exactly one of the two is on the island.
    fn severs(&self, a: ProcessId, b: ProcessId, tick: u64) -> bool {
        self.active_at(tick) && self.isolates(a) != self.isolates(b)
    }
}

/// The scripted partition history of one run: zero or more
/// [`Partition`] windows (the aura `partition_network` /
/// `heal_partitions` shape, expressed as a schedule so both substrates
/// replay it identically from the config alone).
///
/// ```
/// use da_core::network::{Partition, PartitionSchedule};
/// use da_core::ProcessId;
///
/// let (a, b) = (ProcessId(0), ProcessId(1));
/// let schedule = PartitionSchedule::none().with_partition(Partition::cut([b], 5).heal_at(9));
///
/// assert!(!schedule.severed(a, b, 4), "before the cut");
/// assert!(schedule.severed(a, b, 5), "split-brain");
/// assert!(schedule.severed(b, a, 8), "cuts are symmetric");
/// assert!(!schedule.severed(a, b, 9), "healed");
/// assert!(!schedule.severed(a, ProcessId(2), 6), "same side always talks");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionSchedule {
    partitions: Vec<Partition>,
}

impl PartitionSchedule {
    /// The empty schedule: the network never partitions.
    #[must_use]
    pub fn none() -> Self {
        PartitionSchedule::default()
    }

    /// Adds one scripted partition window.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// True when no partition is scripted at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// True when any scripted partition severs `a` from `b` at `tick`.
    /// A pure function of its arguments — no randomness is consumed.
    #[must_use]
    pub fn severed(&self, a: ProcessId, b: ProcessId, tick: u64) -> bool {
        self.partitions.iter().any(|p| p.severs(a, b, tick))
    }
}

/// One scripted message drop: kill the `occurrence`-th send (0-based)
/// from `from` to `to` at `tick`, deterministically and without
/// consuming any randomness.
///
/// This is how a model-checking counterexample replays a "the channel
/// happened to lose exactly that envelope" branch as an ordinary fault
/// config: the explorer records which send it dropped, and the replay
/// kills the same send on either substrate with zero RNG involvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedDrop {
    /// The round/tick the doomed send happens at.
    pub tick: u64,
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
    /// Which of the `(from, to)` sends at `tick` dies, 0-based in send
    /// order. A process that sends the same peer three messages in one
    /// round has occurrences 0, 1, 2.
    pub occurrence: u32,
}

/// A deterministic drop script: a set of [`ScriptedDrop`]s applied on
/// top of the channel model, before any randomness is consumed for the
/// matched send.
///
/// Empty schedules are free: [`NetworkModel::decide_fate`] with an
/// empty schedule makes exactly the channel's draws.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropSchedule {
    drops: Vec<ScriptedDrop>,
}

impl DropSchedule {
    /// The empty schedule — no scripted drops.
    #[must_use]
    pub fn none() -> Self {
        DropSchedule::default()
    }

    /// Adds one scripted drop.
    #[must_use]
    pub fn with_drop(mut self, drop: ScriptedDrop) -> Self {
        self.drops.push(drop);
        self
    }

    /// Adds many scripted drops.
    #[must_use]
    pub fn with_drops<I: IntoIterator<Item = ScriptedDrop>>(mut self, drops: I) -> Self {
        self.drops.extend(drops);
        self
    }

    /// True when nothing is scripted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
    }

    /// True when this schedule kills the `occurrence`-th send from
    /// `from` to `to` at `tick`. Pure — consumes zero randomness.
    #[must_use]
    fn kills(&self, from: ProcessId, to: ProcessId, tick: u64, occurrence: u32) -> bool {
        self.drops
            .iter()
            .any(|d| d.tick == tick && d.from == from && d.to == to && d.occurrence == occurrence)
    }
}

/// How many times each directed edge has sent so far this tick: the
/// `occurrence` a [`ScriptedDrop`] names and the counter half of the
/// stateless `(edge, tick, occurrence)` fate key, counted the same way
/// wherever a send is routed (the live router, the simulator's network,
/// the model checker's script).
///
/// Counted per sender *run*, a maximal stretch of consecutive sends by
/// one sender (a wave's first delivery is a run of about nine, a flood
/// delivery a run of two). A send costs a register-level check, and
/// per-sender state is touched once per run:
///
/// * **A send.** The sender now sending keeps its `(to, count)` pairs at
///   the tail of a per-tick arena, a 64-bit filter of `hash(to)` bits,
///   and per bit the position of the pair that last set or matched it.
///   A send whose bit is clear is its edge's first this tick: it pushes
///   `(to, 1)` and returns 0. A filter hit looks at that position first
///   and scans the run only when another destination shares the bit.
/// * **A change of sender** takes a cold, out-of-line path. The old
///   sender's range is parked in a tick-stamped open-addressed index,
///   sized to the senders actually seen. A sender seen earlier in the
///   tick has its pairs copied back to the arena's tail.
/// * **A wide sender.** A sender that holds 64 destinations and sends to
///   a new one whose bit is set moves to an edge-keyed map for the rest
///   of the tick, so no scan grows with fan-out.
///
/// The counts are exact: send for send, the same answers as one table
/// keyed by the edge. The owner [`clear`](Self::clear)s it when the
/// tick changes, which bumps the stamp and walks nothing. A default
/// table allocates nothing, and its first bump allocates one small
/// block, because the model checker builds one per transition.
///
/// ```
/// use da_core::{Occurrences, ProcessId};
///
/// let mut seen = Occurrences::default();
/// assert_eq!(seen.bump(ProcessId(3), ProcessId(9)), 0);
/// assert_eq!(seen.bump(ProcessId(3), ProcessId(9)), 1);
/// assert_eq!(seen.bump(ProcessId(9), ProcessId(3)), 0, "edges are directed");
/// assert_eq!(seen.bump(ProcessId(3), ProcessId(9)), 2, "a sender's runs add up");
/// seen.clear();
/// assert_eq!(seen.bump(ProcessId(3), ProcessId(9)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Occurrences {
    /// The sender of the current run, or [`NO_SENDER`] before a tick's
    /// first send.
    from: u64,
    /// One bit per [`bucket`] of the current run's destinations; all
    /// ones while the sender is counted in `wide`.
    filter: u64,
    /// For each set `filter` bit, the position in the current run of the
    /// pair that last set or matched it: a repeated edge is found there
    /// unless another destination shares its bucket.
    last: [u8; 64],
    /// Where the current sender's pairs start in `pairs` (they are
    /// always its tail), or [`WIDE`].
    start: u32,
    /// The `index` slot the current sender parks in: where it was
    /// found, or the free slot that ended its probe.
    slot: usize,
    /// This tick's `(to, count)` pairs, sender by sender.
    pairs: Vec<(u32, u32)>,
    /// Every sender parked this tick, open-addressed by a Fibonacci
    /// hash of its pid; a slot is live only under the current `stamp`.
    index: Vec<Parked>,
    /// Live `index` slots, kept at most half the slots.
    parked: usize,
    /// The tick generation; 0 marks a slot never written.
    stamp: u32,
    /// Edge-keyed counts of the senders past [`WIDE_RUN`] destinations
    /// (the key packs `from` in the high half, `to` in the low).
    wide: HashMap<u64, u32, KeyBuildHasher>,
}

/// Where one sender's pairs sit between its runs: `len` pairs from
/// `start` in the arena ([`WIDE`] when it is counted edge by edge),
/// live in the tick whose `stamp` it carries.
#[derive(Debug, Clone, Copy, Default)]
struct Parked {
    stamp: u32,
    from: u32,
    start: u32,
    len: u32,
}

/// `Occurrences::from` before a tick's first send: no pid widens to it.
const NO_SENDER: u64 = u64::MAX;
/// A sender counted in the edge-keyed map (its `start`, and its parked
/// `len`).
const WIDE: u32 = u32::MAX;
/// The destinations a sender's run holds before a filter hit on a new
/// one moves its counts to the edge-keyed map for the rest of the tick.
const WIDE_RUN: usize = 64;
/// The first index allocation, in slots.
const MIN_SLOTS: usize = 16;

/// A destination's bit in the run filter: the top six bits of a
/// Fibonacci multiply.
#[inline(always)]
fn bucket(to: u32) -> usize {
    (to.wrapping_mul(0x9E37_79B9) >> 26) as usize
}

impl Default for Occurrences {
    fn default() -> Self {
        Occurrences {
            from: NO_SENDER,
            filter: 0,
            last: [0; 64],
            start: 0,
            slot: 0,
            pairs: Vec::new(),
            index: Vec::new(),
            parked: 0,
            stamp: 1,
            wide: HashMap::default(),
        }
    }
}

impl Occurrences {
    /// Counts one more send on `from → to` and returns how many came
    /// before it since the last [`clear`](Self::clear).
    #[inline(always)]
    pub fn bump(&mut self, from: ProcessId, to: ProcessId) -> u32 {
        if u64::from(from.0) != self.from {
            self.switch(from);
        }
        let bucket = bucket(to.0);
        if self.filter & 1 << bucket == 0 {
            self.filter |= 1 << bucket;
            self.last[bucket] = (self.pairs.len() - self.start as usize) as u8;
            self.pairs.push((to.0, 1));
            0
        } else {
            self.repeat(to.0, bucket)
        }
    }

    /// Forgets every count and keeps the buffers, so steady-state ticks
    /// allocate nothing: the footprint is bounded by the busiest single
    /// tick. Bumps the stamp, so the index is not walked.
    #[inline]
    pub fn clear(&mut self) {
        self.from = NO_SENDER;
        self.filter = 0;
        self.pairs.clear();
        self.wide.clear();
        self.parked = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Once in 2³² ticks: no slot may keep a stamp that recurs.
            self.index.fill(Parked::default());
            self.stamp = 1;
        }
    }

    /// A change of sender: parks the current run, then finds `from`'s
    /// slot and takes up its pairs, or starts it fresh.
    #[cold]
    #[inline(never)]
    fn switch(&mut self, from: ProcessId) {
        self.park();
        self.from = u64::from(from.0);
        self.slot = self.probe(from.0);
        self.filter = 0;
        self.start = self.pairs.len() as u32;
        let Some(&parked) = self.index.get(self.slot) else {
            return;
        };
        if parked.stamp != self.stamp {
            return;
        }
        if parked.len == WIDE {
            self.start = WIDE;
            self.filter = !0;
            return;
        }
        // One pass copies the pairs and rebuilds the filter: a run is
        // a few pairs, and `extend_from_within` would call `memmove`.
        let (start, len) = (parked.start as usize, parked.len as usize);
        self.pairs.reserve(len);
        for i in 0..len {
            let pair = self.pairs[start + i];
            let bucket = bucket(pair.0);
            self.filter |= 1 << bucket;
            self.last[bucket] = i as u8;
            self.pairs.push(pair);
        }
    }

    /// Writes the current sender's range into its slot, claiming the
    /// slot (and growing the index) if it is new this tick.
    fn park(&mut self) {
        if self.from == NO_SENDER {
            return;
        }
        let from = self.from as u32;
        let live = self
            .index
            .get(self.slot)
            .is_some_and(|p| p.stamp == self.stamp);
        if !live {
            if 2 * (self.parked + 1) > self.index.len() {
                self.grow();
                self.slot = self.probe(from);
            }
            self.parked += 1;
        }
        let len = if self.start == WIDE {
            WIDE
        } else {
            self.pairs.len() as u32 - self.start
        };
        self.index[self.slot] = Parked {
            stamp: self.stamp,
            from,
            start: self.start,
            len,
        };
    }

    /// The slot `from` is parked in this tick, or the free slot where it
    /// would be; `usize::MAX` while the index has none.
    fn probe(&self, from: u32) -> usize {
        if self.index.is_empty() {
            return usize::MAX;
        }
        let mask = self.index.len() - 1;
        let shift = 64 - self.index.len().trailing_zeros();
        let mut i = (u64::from(from).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        for _ in 0..self.index.len() {
            let p = self.index[i];
            if p.stamp != self.stamp || p.from == from {
                return i;
            }
            i = (i + 1) & mask;
        }
        unreachable!("the index is kept at most half full")
    }

    /// Doubles the index (or makes its first one), moving this tick's
    /// slots across.
    fn grow(&mut self) {
        let slots = (2 * self.index.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.index, vec![Parked::default(); slots]);
        for p in old.into_iter().filter(|p| p.stamp == self.stamp) {
            let i = self.probe(p.from);
            self.index[i] = p;
        }
    }

    /// A filter hit: the edge's count if the run has it (at
    /// `last[bucket]`, or else found by a scan), else a new pair — or,
    /// past [`WIDE_RUN`] destinations, the edge-keyed map.
    #[inline(never)]
    fn repeat(&mut self, to: u32, bucket: usize) -> u32 {
        if self.start != WIDE {
            let run = &mut self.pairs[self.start as usize..];
            let last = usize::from(self.last[bucket]);
            let at = if run[last].0 == to {
                Some(last)
            } else {
                run.iter().position(|pair| pair.0 == to)
            };
            if let Some(at) = at {
                self.last[bucket] = at as u8;
                run[at].1 += 1;
                return run[at].1 - 1;
            }
            if run.len() < WIDE_RUN {
                self.last[bucket] = run.len() as u8;
                self.pairs.push((to, 1));
                return 0;
            }
            for &(to, count) in &self.pairs[self.start as usize..] {
                self.wide.insert(self.from << 32 | u64::from(to), count);
            }
            self.pairs.truncate(self.start as usize);
            self.start = WIDE;
            self.filter = !0;
        }
        let count = self
            .wide
            .entry(self.from << 32 | u64::from(to))
            .or_insert(0);
        *count += 1;
        *count - 1
    }
}

/// The fate of one send under the full network model: severed by a
/// partition (zero randomness), lost on the channel, or delivered after
/// a sampled latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFate {
    /// A partition severs the sender from the receiver at the send
    /// tick. Decided without consuming any randomness.
    Severed,
    /// The channel dropped the message.
    Lost,
    /// The message survives and arrives `latency` rounds/ticks after it
    /// was sent.
    Deliver {
        /// Rounds/ticks between send and delivery (≥ 1).
        latency: u64,
    },
}

/// The complete network fault model both substrates consume: one
/// [`ChannelConfig`], a [`PartitionSchedule`] and a [`DropSchedule`].
///
/// The uniform case wraps a plain channel unchanged —
/// `NetworkModel::uniform(c)` (or `c.into()`) behaves byte-for-byte
/// like the bare `ChannelConfig` did: same draws, same order, same
/// fates.
///
/// ```
/// use da_core::channel::{ChannelConfig, Latency};
/// use da_core::network::{NetFate, NetworkModel, Partition, PartitionSchedule};
/// use da_core::seed::rng_from_seed;
/// use da_core::ProcessId;
///
/// // Uniform case: one channel everywhere, no partitions.
/// let uniform = NetworkModel::uniform(ChannelConfig::paper_default());
/// assert!((uniform.channel.success_probability - 0.85).abs() < 1e-12);
///
/// // Processes 0..3 are cut off from everyone else for ticks 4..8.
/// let model = NetworkModel {
///     partitions: PartitionSchedule::none()
///         .with_partition(Partition::cut((0..3).map(ProcessId), 4).heal_at(8)),
///     ..NetworkModel::uniform(ChannelConfig::reliable().with_latency(Latency::Fixed(2)))
/// };
///
/// let (island, mainland) = (ProcessId(1), ProcessId(7));
/// let mut rng = rng_from_seed(1);
/// // Before the cut the send is drawn on the channel.
/// assert_eq!(
///     model.decide_fate(island, mainland, 0, 0, &mut rng),
///     NetFate::Deliver { latency: 2 },
/// );
/// // During the cut it is severed — deterministically, with no draw.
/// assert_eq!(model.decide_fate(island, mainland, 5, 0, &mut rng), NetFate::Severed);
/// // Traffic inside the island never notices.
/// assert_eq!(
///     model.decide_fate(ProcessId(0), ProcessId(2), 5, 0, &mut rng),
///     NetFate::Deliver { latency: 2 },
/// );
/// // After the heal the cut link carries traffic again.
/// assert_eq!(
///     model.decide_fate(island, mainland, 8, 0, &mut rng),
///     NetFate::Deliver { latency: 2 },
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkModel {
    /// The channel every send is drawn on.
    pub channel: ChannelConfig,
    /// Scripted split-brain windows.
    pub partitions: PartitionSchedule,
    /// Scripted per-send drops (model-checking counterexample replays).
    /// Empty by default; consulted only by [`NetworkModel::decide_fate`].
    pub drops: DropSchedule,
}

impl NetworkModel {
    /// The uniform model: `channel` everywhere, no partitions and no
    /// scripted drops.
    #[must_use]
    pub fn uniform(channel: ChannelConfig) -> Self {
        NetworkModel {
            channel,
            partitions: PartitionSchedule::none(),
            drops: DropSchedule::none(),
        }
    }

    /// Installs a scripted drop schedule (see [`DropSchedule`]).
    #[must_use]
    pub fn with_drops(mut self, drops: DropSchedule) -> Self {
        self.drops = drops;
        self
    }

    /// Decides the fate of the `occurrence`-th send from `from` to `to`
    /// at `tick`, drawing from `rng` only what the scripts leave open.
    ///
    /// Draw-order contract (deterministic replays depend on it): the
    /// partition check comes first and the scripted [`DropSchedule`]
    /// second; both are pure — a severed send and a send the script
    /// matches (`Lost`) consume **zero** randomness. Surviving sends
    /// then follow [`ChannelConfig::sample_fate`]'s pinned order on the
    /// channel — at most one Bernoulli draw, then at most one latency
    /// draw. With no partition and an empty schedule these are exactly
    /// the bare channel's draws.
    // Inlined into the live router's `send`, the path of every lossy
    // send: left to the heuristics, an unrelated change elsewhere in the
    // benchmark binary moved it out of line and cost `metro_flood` a
    // tenth of its raw op time.
    #[inline]
    pub fn decide_fate<R: Rng>(
        &self,
        from: ProcessId,
        to: ProcessId,
        tick: u64,
        occurrence: u32,
        rng: &mut R,
    ) -> NetFate {
        if self.partitions.severed(from, to, tick) {
            return NetFate::Severed;
        }
        if !self.drops.is_empty() && self.drops.kills(from, to, tick, occurrence) {
            return NetFate::Lost;
        }
        match self.channel.sample_fate(rng) {
            ChannelFate::Lost => NetFate::Lost,
            ChannelFate::Deliver { latency } => NetFate::Deliver { latency },
        }
    }

    /// The fastest delivery the channel can ever sample — the drift
    /// bound a bounded-lag scheduler may exploit.
    ///
    /// ```
    /// use da_core::channel::{ChannelConfig, Latency};
    /// use da_core::run::RunConfig;
    ///
    /// assert_eq!(RunConfig::<()>::default().faults.network.min_latency(), 1);
    /// let slack = RunConfig::<()>::default()
    ///     .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(3)));
    /// assert_eq!(slack.faults.network.min_latency(), 3);
    /// ```
    #[must_use]
    pub fn min_latency(&self) -> u64 {
        self.channel.min_latency()
    }

    /// The slowest delivery the channel can ever sample — how far into
    /// the future a surviving send can land, and therefore the horizon a
    /// delay wheel must cover ([`ring_ticks`](Self::ring_ticks)).
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        self.channel.max_latency()
    }

    /// The due ticks a delay wheel's ring must span, `max_latency() + 1`:
    /// both substrates size their ring here, so this is where link
    /// latency, being config input, is bounded. Panics, naming the
    /// latency, when it exceeds [`MAX_RING_TICKS`].
    #[must_use]
    pub fn ring_ticks(&self) -> usize {
        let latency = self.max_latency();
        assert!(
            latency <= MAX_RING_TICKS,
            "link latency of {latency} ticks exceeds the bound of {MAX_RING_TICKS} ticks"
        );
        latency as usize + 1
    }

    /// True when the model can neither lose, delay, nor sever anything:
    /// the channel is perfect, no partition is scripted, and no drop is
    /// scripted — the configuration under which a faulty transport must
    /// behave byte-for-byte like a perfect one.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.channel.is_perfect() && self.partitions.is_empty() && self.drops.is_empty()
    }
}

impl From<ChannelConfig> for NetworkModel {
    fn from(channel: ChannelConfig) -> Self {
        NetworkModel::uniform(channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Latency;
    use crate::seed::rng_from_seed;

    #[test]
    fn uniform_model_matches_bare_channel_draw_for_draw() {
        // The uniform case must consume the exact randomness the bare
        // channel consumed, so upgrading configs cannot shift streams.
        let channel =
            ChannelConfig::paper_default().with_latency(Latency::UniformRounds { min: 1, max: 4 });
        let model = NetworkModel::uniform(channel);
        let mut a = rng_from_seed(3);
        let mut b = rng_from_seed(3);
        for tick in 0..256 {
            let bare = channel.sample_fate(&mut a);
            let net = model.decide_fate(ProcessId(0), ProcessId(1), tick, 0, &mut b);
            match (bare, net) {
                (ChannelFate::Lost, NetFate::Lost) => {}
                (ChannelFate::Deliver { latency: x }, NetFate::Deliver { latency: y }) => {
                    assert_eq!(x, y);
                }
                other => panic!("fates diverged: {other:?}"),
            }
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams stayed in lockstep");
    }

    #[test]
    fn severed_sends_consume_no_randomness() {
        let model = NetworkModel {
            partitions: PartitionSchedule::none().with_partition(Partition::cut([ProcessId(1)], 0)),
            ..NetworkModel::uniform(ChannelConfig::paper_default())
        };
        let mut a = rng_from_seed(7);
        let b = rng_from_seed(7);
        for tick in 0..64 {
            assert_eq!(
                model.decide_fate(ProcessId(0), ProcessId(1), tick, 0, &mut a),
                NetFate::Severed
            );
        }
        let mut b = b;
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "no draw was consumed");
    }

    #[test]
    fn partitions_are_pid_pair_and_tick_pure() {
        let cut = Partition::cut([ProcessId(1), ProcessId(2)], 3).heal_at(7);
        assert!(!cut.active_at(2));
        assert!(cut.active_at(3));
        assert!(cut.active_at(6));
        assert!(!cut.active_at(7));
        assert!(cut.severs(ProcessId(0), ProcessId(2), 5));
        assert!(!cut.severs(ProcessId(1), ProcessId(2), 5), "same island");
        assert!(!cut.severs(ProcessId(0), ProcessId(3), 5), "both outside");
        assert!(
            !cut.severs(ProcessId(9), ProcessId(1_000), 5),
            "past the island's last pid"
        );
        let forever = Partition::cut([ProcessId(1)], 2);
        assert!(forever.active_at(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "heal after its cut")]
    fn heal_must_follow_cut() {
        let _ = Partition::cut([ProcessId(0)], 5).heal_at(5);
    }

    #[test]
    fn overlapping_windows_union() {
        let schedule = PartitionSchedule::none()
            .with_partition(Partition::cut([ProcessId(1)], 0).heal_at(4))
            .with_partition(Partition::cut([ProcessId(1)], 8).heal_at(10));
        assert!(schedule.severed(ProcessId(0), ProcessId(1), 2));
        assert!(
            !schedule.severed(ProcessId(0), ProcessId(1), 5),
            "between windows"
        );
        assert!(schedule.severed(ProcessId(0), ProcessId(1), 9));
        assert_eq!(schedule.partitions.len(), 2);
    }

    /// Isolating `{0, 1}` and `{2, 3}` over the same ticks splits six
    /// processes three ways: each island and the rest `{4, 5}`.
    #[test]
    fn a_three_way_split_is_two_windows() {
        let island = |pid: u32| match pid {
            0 | 1 => 0,
            2 | 3 => 1,
            _ => 2,
        };
        let schedule = PartitionSchedule::none()
            .with_partition(Partition::cut([ProcessId(0), ProcessId(1)], 2).heal_at(6))
            .with_partition(Partition::cut([ProcessId(2), ProcessId(3)], 2).heal_at(6));
        for a in 0..6 {
            for b in 0..6 {
                let (pa, pb) = (ProcessId(a), ProcessId(b));
                assert_eq!(
                    schedule.severed(pa, pb, 4),
                    island(a) != island(b),
                    "{a} -> {b} during the cut"
                );
                assert_eq!(schedule.severed(pa, pb, 4), schedule.severed(pb, pa, 4));
                assert!(!schedule.severed(pa, pb, 1), "{a} -> {b} before the cut");
                assert!(!schedule.severed(pa, pb, 6), "{a} -> {b} after the heal");
            }
        }
    }

    #[test]
    fn min_latency_reads_the_one_channel() {
        let fixed = ChannelConfig::reliable().with_latency(Latency::Fixed(4));
        assert_eq!(NetworkModel::uniform(fixed).min_latency(), 4);
        let jittery =
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 1, max: 6 });
        assert_eq!(NetworkModel::uniform(jittery).min_latency(), 1);
    }

    #[test]
    fn max_latency_reads_the_one_channel() {
        let fixed = ChannelConfig::reliable().with_latency(Latency::Fixed(4));
        assert_eq!(NetworkModel::uniform(fixed).max_latency(), 4);
        let jittery =
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 1, max: 6 });
        assert_eq!(NetworkModel::uniform(jittery).max_latency(), 6);
        assert_eq!(
            NetworkModel::uniform(ChannelConfig::reliable()).max_latency(),
            1
        );
    }

    #[test]
    fn perfection_requires_no_partitions() {
        let perfect = NetworkModel::uniform(ChannelConfig::reliable());
        assert!(perfect.is_perfect());
        let cut = NetworkModel {
            partitions: PartitionSchedule::none().with_partition(Partition::cut([ProcessId(1)], 9)),
            ..perfect.clone()
        };
        assert!(!cut.is_perfect(), "a scripted cut must disable fast paths");
        assert!(NetworkModel::from(ChannelConfig::reliable()).is_perfect());
    }

    #[test]
    fn scripted_drop_kills_exact_occurrence_without_randomness() {
        let model = NetworkModel::uniform(ChannelConfig::reliable()).with_drops(
            DropSchedule::none().with_drop(ScriptedDrop {
                tick: 3,
                from: ProcessId(0),
                to: ProcessId(1),
                occurrence: 1,
            }),
        );
        assert!(!model.is_perfect(), "a scripted drop disables fast paths");
        let mut rng = rng_from_seed(4);
        // Occurrence 0 sails through; occurrence 1 dies; occurrence 2 sails.
        assert_eq!(
            model.decide_fate(ProcessId(0), ProcessId(1), 3, 0, &mut rng),
            NetFate::Deliver { latency: 1 },
        );
        assert_eq!(
            model.decide_fate(ProcessId(0), ProcessId(1), 3, 1, &mut rng),
            NetFate::Lost,
        );
        assert_eq!(
            model.decide_fate(ProcessId(0), ProcessId(1), 3, 2, &mut rng),
            NetFate::Deliver { latency: 1 },
        );
        // Wrong tick, wrong direction: untouched.
        assert_eq!(
            model.decide_fate(ProcessId(0), ProcessId(1), 4, 1, &mut rng),
            NetFate::Deliver { latency: 1 },
        );
        assert_eq!(
            model.decide_fate(ProcessId(1), ProcessId(0), 3, 1, &mut rng),
            NetFate::Deliver { latency: 1 },
        );
        // A perfect channel consumes zero randomness either way, so the
        // stream never moved.
        use rand::Rng as _;
        let mut fresh = rng_from_seed(4);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }
}
