//! The topology layer of the network fault model: named nodes,
//! process→node placement, per-link channel overrides, and first-class
//! network partitions.
//!
//! The paper's evaluation assumes i.i.d. per-edge loss; real deployments
//! fail in *correlated* ways — a rack uplink degrades every flow that
//! crosses it, and a split-brain partition silences whole sites at once.
//! This module extends the substrate-neutral fault surface with exactly
//! that structure while keeping the uniform case untouched:
//!
//! * [`NetworkModel`] is the one type both substrates consume. Its
//!   uniform case wraps a plain [`ChannelConfig`] unchanged (and
//!   `From<ChannelConfig>` makes the upgrade implicit).
//! * [`Topology`] names nodes (racks, sites, datacenters), places
//!   processes on them, and overrides the channel per directed node
//!   link — single-hop static routing: the link between two processes is
//!   the link between their nodes.
//! * [`PartitionSchedule`] scripts split-brain windows: islands of nodes
//!   are *cut* at a tick and optionally *healed* at a later tick.
//!   Messages crossing an active cut are dropped at send time.
//!
//! Determinism contract: whether a send is severed is a pure function of
//! the two placements and the send tick — it consumes **zero**
//! randomness — and the surviving sends draw their loss/latency fate
//! through the unchanged pinned-draw-order machinery of
//! [`ChannelConfig::sample_fate`]. One seed therefore yields identical
//! link fates on the simulator and the live runtime.

use crate::channel::{ChannelConfig, ChannelFate};
use crate::metrics::KeyBuildHasher;
use crate::process::ProcessId;
use rand::Rng;
use std::collections::HashMap;

/// Identifier of one topology node (a rack, site, or datacenter —
/// whatever unit fails together). Dense indices into
/// [`Topology::with_nodes`]'s name list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node as a vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A named network topology: nodes, process placement, and per-link
/// channel overrides (single-hop static routing).
///
/// Processes not explicitly placed live on node 0, so a topology is
/// always total. Links are *directed*: a symmetric link is two
/// [`Topology::with_link`] calls.
///
/// ```
/// use da_core::channel::ChannelConfig;
/// use da_core::topology::{NodeId, Topology};
///
/// let wan = ChannelConfig::reliable().with_success_probability(0.9);
/// let topo = Topology::with_nodes(["dc-a", "dc-b"])
///     .with_placement_range(0..4, NodeId(1))
///     .with_link(NodeId(1), NodeId(0), wan);
///
/// let links: Vec<_> = topo.links().collect();
/// assert_eq!(links, [(NodeId(1), NodeId(0), wan)], "directed");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    /// Node names, indexed by [`NodeId`].
    names: Vec<String>,
    /// `placement[i]` is the node hosting `ProcessId(i)`; shorter than
    /// the population means the tail lives on node 0.
    placement: Vec<NodeId>,
    /// Directed per-link channel overrides, keyed by `(from, to)` node
    /// pair. Links are few (racks, not processes), so a flat vector
    /// beats a map.
    links: Vec<(NodeId, NodeId, ChannelConfig)>,
}

impl Topology {
    /// A topology over the given node names (`NodeId(i)` is the i-th
    /// name). Every process starts on node 0.
    #[must_use]
    pub fn with_nodes<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "a topology needs at least one node");
        Topology {
            names,
            placement: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.names.len()
    }

    /// The name of `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Places one process on `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn with_placement(mut self, pid: ProcessId, node: NodeId) -> Self {
        assert!(node.index() < self.names.len(), "unknown node {node}");
        if self.placement.len() <= pid.index() {
            self.placement.resize(pid.index() + 1, NodeId(0));
        }
        self.placement[pid.index()] = node;
        self
    }

    /// Places every process with index in `pids` on `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn with_placement_range(mut self, pids: std::ops::Range<usize>, node: NodeId) -> Self {
        assert!(node.index() < self.names.len(), "unknown node {node}");
        if self.placement.len() < pids.end {
            self.placement.resize(pids.end, NodeId(0));
        }
        for i in pids {
            self.placement[i] = node;
        }
        self
    }

    /// Overrides the channel of the directed link `from → to`
    /// (replacing any previous override for that pair).
    ///
    /// # Panics
    ///
    /// Panics when either node is out of range.
    #[must_use]
    pub fn with_link(mut self, from: NodeId, to: NodeId, channel: ChannelConfig) -> Self {
        assert!(from.index() < self.names.len(), "unknown node {from}");
        assert!(to.index() < self.names.len(), "unknown node {to}");
        if let Some(entry) = self
            .links
            .iter_mut()
            .find(|(f, t, _)| (*f, *t) == (from, to))
        {
            entry.2 = channel;
        } else {
            self.links.push((from, to, channel));
        }
        self
    }

    /// The node hosting `pid` (node 0 when unplaced).
    fn node_of(&self, pid: ProcessId) -> NodeId {
        self.placement
            .get(pid.index())
            .copied()
            .unwrap_or(NodeId(0))
    }

    /// The channel override of the directed link `from → to`, if any.
    #[must_use]
    fn link(&self, from: NodeId, to: NodeId) -> Option<ChannelConfig> {
        self.links
            .iter()
            .find(|(f, t, _)| (*f, *t) == (from, to))
            .map(|(_, _, c)| *c)
    }

    /// Iterates over the directed link overrides.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, ChannelConfig)> + '_ {
        self.links.iter().copied()
    }
}

/// One scripted split-brain window: the listed islands of nodes are
/// mutually cut from `cut_at` (inclusive) until `heal_at` (exclusive),
/// or forever when `heal_at` is `None`.
///
/// Nodes not listed in any island are unaffected — they keep talking to
/// everyone. Two nodes in the *same* island also keep talking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The mutually isolated node groups.
    pub islands: Vec<Vec<NodeId>>,
    /// First tick at which the cut applies.
    pub cut_at: u64,
    /// First tick at which the cut no longer applies (`None` = never
    /// heals).
    pub heal_at: Option<u64>,
}

impl Partition {
    /// A cut of `islands` starting at `cut_at` that never heals (chain
    /// [`Partition::heal_at`] to script the re-merge).
    #[must_use]
    pub fn cut(islands: Vec<Vec<NodeId>>, cut_at: u64) -> Self {
        Partition {
            islands,
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

    /// The island containing `node`, if listed.
    fn island_of(&self, node: NodeId) -> Option<usize> {
        self.islands.iter().position(|i| i.contains(&node))
    }

    /// True when this partition severs `a` from `b` at `tick`: the cut
    /// is active and the nodes sit in different islands.
    #[must_use]
    fn severs(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
        if !self.active_at(tick) {
            return false;
        }
        match (self.island_of(a), self.island_of(b)) {
            (Some(ia), Some(ib)) => ia != ib,
            _ => false,
        }
    }
}

/// The scripted partition history of one run: zero or more
/// [`Partition`] windows (the aura `partition_network` /
/// `heal_partitions` shape, expressed as a schedule so both substrates
/// replay it identically from the config alone).
///
/// ```
/// use da_core::topology::{NodeId, Partition, PartitionSchedule};
///
/// let (a, b) = (NodeId(0), NodeId(1));
/// let schedule = PartitionSchedule::none()
///     .with_partition(Partition::cut(vec![vec![a], vec![b]], 5).heal_at(9));
///
/// assert!(!schedule.severed(a, b, 4), "before the cut");
/// assert!(schedule.severed(a, b, 5), "split-brain");
/// assert!(schedule.severed(b, a, 8), "cuts are symmetric");
/// assert!(!schedule.severed(a, b, 9), "healed");
/// assert!(!schedule.severed(a, a, 6), "same island always talks");
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

    /// The scripted partition windows.
    #[must_use]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// True when any scripted partition severs `a` from `b` at `tick`.
    /// A pure function of its arguments — no randomness is consumed.
    #[must_use]
    pub fn severed(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
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

    /// Number of scripted drops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.drops.len()
    }

    /// The scripted drops, in insertion order.
    #[must_use]
    pub fn drops(&self) -> &[ScriptedDrop] {
        &self.drops
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
/// One table keyed by the edge packed into a word (`from` in the high
/// half, `to` in the low) and hashed by one [`KeyHasher`] multiply; the
/// count is 0 for almost every send, so what a send pays for is the hash.
/// The owner [`clear`](Self::clear)s it when the tick changes.
///
/// [`KeyHasher`]: crate::metrics::KeyHasher
///
/// ```
/// use da_core::{Occurrences, ProcessId};
///
/// let mut seen = Occurrences::default();
/// assert_eq!(seen.bump(ProcessId(3), ProcessId(9)), 0);
/// assert_eq!(seen.bump(ProcessId(3), ProcessId(9)), 1);
/// assert_eq!(seen.bump(ProcessId(9), ProcessId(3)), 0, "edges are directed");
/// seen.clear();
/// assert_eq!(seen.bump(ProcessId(3), ProcessId(9)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Occurrences {
    counts: HashMap<u64, u32, KeyBuildHasher>,
}

impl Occurrences {
    /// Counts one more send on `from → to` and returns how many came
    /// before it since the last [`clear`](Self::clear).
    #[inline]
    pub fn bump(&mut self, from: ProcessId, to: ProcessId) -> u32 {
        let key = u64::from(from.0) << 32 | u64::from(to.0);
        let count = self.counts.entry(key).or_insert(0);
        let before = *count;
        *count += 1;
        before
    }

    /// Forgets every count and keeps the table, so steady-state ticks
    /// allocate nothing: the footprint is bounded by the edges of the
    /// busiest single tick, not by the edges ever used.
    #[inline]
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

/// The fate of one send under the full network model: severed by a
/// partition (zero randomness), lost on the channel, or delivered after
/// a sampled latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFate {
    /// A partition severs the sender's node from the receiver's node at
    /// the send tick. Decided without consuming any randomness.
    Severed,
    /// The (effective) channel dropped the message.
    Lost,
    /// The message survives and arrives `latency` rounds/ticks after it
    /// was sent.
    Deliver {
        /// Rounds/ticks between send and delivery (≥ 1).
        latency: u64,
    },
}

/// The complete network fault model both substrates consume: a default
/// [`ChannelConfig`], an optional [`Topology`] of per-link overrides,
/// and a [`PartitionSchedule`].
///
/// The uniform case wraps a plain channel unchanged —
/// `NetworkModel::uniform(c)` (or `c.into()`) behaves byte-for-byte
/// like the bare `ChannelConfig` did: same draws, same order, same
/// fates.
///
/// ```
/// use da_core::channel::{ChannelConfig, ChannelFate};
/// use da_core::topology::{NetFate, NetworkModel, NodeId, Partition, PartitionSchedule, Topology};
/// use da_core::seed::rng_from_seed;
/// use da_core::ProcessId;
///
/// // Uniform case: one channel everywhere, no partitions.
/// let uniform = NetworkModel::uniform(ChannelConfig::paper_default());
/// assert!((uniform.channel.success_probability - 0.85).abs() < 1e-12);
///
/// // Two sites; processes 0..3 on "edge"; the WAN link is slower, and a
/// // partition cuts the sites apart for ticks 4..8.
/// let wan = ChannelConfig::reliable().with_latency(da_core::channel::Latency::Fixed(2));
/// let model = NetworkModel {
///     topology: Some(
///         Topology::with_nodes(["core", "edge"])
///             .with_placement_range(0..3, NodeId(1))
///             .with_link(NodeId(0), NodeId(1), wan)
///             .with_link(NodeId(1), NodeId(0), wan),
///     ),
///     partitions: PartitionSchedule::none().with_partition(
///         Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 4).heal_at(8),
///     ),
///     ..NetworkModel::uniform(ChannelConfig::reliable())
/// };
///
/// let (edge, core) = (ProcessId(1), ProcessId(7));
/// let mut rng = rng_from_seed(1);
/// // Before the cut, the cross-site send uses the WAN override.
/// assert_eq!(
///     model.decide_fate(edge, core, 0, 0, &mut rng),
///     NetFate::Deliver { latency: 2 },
/// );
/// // During the cut it is severed — deterministically, with no draw.
/// assert_eq!(model.decide_fate(edge, core, 5, 0, &mut rng), NetFate::Severed);
/// // Intra-site traffic never notices: default channel, still flowing.
/// assert_eq!(
///     model.decide_fate(ProcessId(0), ProcessId(2), 5, 0, &mut rng),
///     NetFate::Deliver { latency: 1 },
/// );
/// // After the heal the WAN link carries traffic again.
/// assert_eq!(
///     model.decide_fate(edge, core, 8, 0, &mut rng),
///     NetFate::Deliver { latency: 2 },
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkModel {
    /// The default channel: used for every link without a topology
    /// override (and for everything in the uniform case).
    pub channel: ChannelConfig,
    /// Node placement and per-link overrides; `None` is the uniform
    /// model.
    pub topology: Option<Topology>,
    /// Scripted split-brain windows.
    pub partitions: PartitionSchedule,
    /// Scripted per-send drops (model-checking counterexample replays).
    /// Empty by default; consulted only by [`NetworkModel::decide_fate`].
    pub drops: DropSchedule,
}

impl NetworkModel {
    /// The uniform model: `channel` everywhere, no topology, no
    /// partitions — exactly the pre-topology fault surface.
    #[must_use]
    pub fn uniform(channel: ChannelConfig) -> Self {
        NetworkModel {
            channel,
            topology: None,
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

    /// The node hosting `pid` (node 0 without a topology).
    fn node_of(&self, pid: ProcessId) -> NodeId {
        self.topology.as_ref().map_or(NodeId(0), |t| t.node_of(pid))
    }

    /// True when a scripted partition severs `from`'s node from `to`'s
    /// node at `tick`. Pure — consumes zero randomness — so both
    /// substrates decide it identically from the config alone.
    #[must_use]
    pub fn severed(&self, from: ProcessId, to: ProcessId, tick: u64) -> bool {
        if self.partitions.is_empty() {
            return false;
        }
        self.partitions
            .severed(self.node_of(from), self.node_of(to), tick)
    }

    /// The effective channel between two processes: the override of the
    /// link between their nodes, or the default channel (single-hop
    /// static routing).
    #[must_use]
    pub fn channel_between(&self, from: ProcessId, to: ProcessId) -> ChannelConfig {
        match &self.topology {
            Some(t) => t
                .link(t.node_of(from), t.node_of(to))
                .unwrap_or(self.channel),
            None => self.channel,
        }
    }

    /// Decides the fate of the `occurrence`-th send from `from` to `to`
    /// at `tick`, drawing from `rng` only what the scripts leave open.
    ///
    /// Draw-order contract (deterministic replays depend on it): the
    /// partition check comes first and the scripted [`DropSchedule`]
    /// second; both are pure — a severed send and a send the script
    /// matches (`Lost`) consume **zero** randomness. Surviving sends
    /// then follow [`ChannelConfig::sample_fate`]'s pinned order on the
    /// effective link channel — at most one Bernoulli draw, then at most
    /// one latency draw. With no partition and an empty schedule these
    /// are exactly the bare channel's draws.
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
        if self.severed(from, to, tick) {
            return NetFate::Severed;
        }
        if !self.drops.is_empty() && self.drops.kills(from, to, tick, occurrence) {
            return NetFate::Lost;
        }
        match self.channel_between(from, to).sample_fate(rng) {
            ChannelFate::Lost => NetFate::Lost,
            ChannelFate::Deliver { latency } => NetFate::Deliver { latency },
        }
    }

    /// The fastest delivery any link of this model can ever sample —
    /// the drift bound a bounded-lag scheduler may exploit. The minimum
    /// of the default channel's floor and every override's.
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
        self.link_channels()
            .map(|c| c.min_latency())
            .fold(self.channel.min_latency(), u64::min)
    }

    /// The slowest delivery any link of this model can ever sample —
    /// how far into the future a surviving send can land, and therefore
    /// the horizon a fixed-capacity delay wheel must cover. The maximum
    /// of the default channel's ceiling and every override's. (Every
    /// latency model is bounded, so this is always finite; a wheel
    /// still keeps a spillover path for envelopes scheduled past the
    /// capacity it was sized with.)
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        self.link_channels()
            .map(|c| c.max_latency())
            .fold(self.channel.max_latency(), u64::max)
    }

    /// The channel of every link override.
    fn link_channels(&self) -> impl Iterator<Item = ChannelConfig> + '_ {
        self.topology
            .iter()
            .flat_map(Topology::links)
            .map(|(_, _, c)| c)
    }

    /// True when the model can neither lose, delay, nor sever anything:
    /// the default channel and every override are perfect, no partition
    /// is scripted, and no drop is scripted — the configuration under
    /// which a faulty transport must behave byte-for-byte like a
    /// perfect one.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.channel.is_perfect()
            && self.partitions.is_empty()
            && self.drops.is_empty()
            && self.link_channels().all(|c| c.is_perfect())
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
            topology: Some(
                Topology::with_nodes(["a", "b"]).with_placement(ProcessId(1), NodeId(1)),
            ),
            partitions: PartitionSchedule::none()
                .with_partition(Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 0)),
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
    fn partitions_are_node_pair_and_tick_pure() {
        let cut = Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]], 3).heal_at(7);
        assert!(!cut.active_at(2));
        assert!(cut.active_at(3));
        assert!(cut.active_at(6));
        assert!(!cut.active_at(7));
        assert!(cut.severs(NodeId(0), NodeId(2), 5));
        assert!(!cut.severs(NodeId(1), NodeId(2), 5), "same island");
        assert!(!cut.severs(NodeId(0), NodeId(3), 5), "unlisted node");
        let forever = Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 2);
        assert!(forever.active_at(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "heal after its cut")]
    fn heal_must_follow_cut() {
        let _ = Partition::cut(vec![], 5).heal_at(5);
    }

    #[test]
    fn overlapping_windows_union() {
        let schedule = PartitionSchedule::none()
            .with_partition(Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 0).heal_at(4))
            .with_partition(Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 8).heal_at(10));
        assert!(schedule.severed(NodeId(0), NodeId(1), 2));
        assert!(
            !schedule.severed(NodeId(0), NodeId(1), 5),
            "between windows"
        );
        assert!(schedule.severed(NodeId(0), NodeId(1), 9));
        assert_eq!(schedule.partitions().len(), 2);
    }

    #[test]
    fn link_overrides_route_by_placement() {
        let wan = ChannelConfig::reliable().with_success_probability(0.5);
        let model = NetworkModel {
            topology: Some(
                Topology::with_nodes(["core", "edge"])
                    .with_placement_range(4..8, NodeId(1))
                    .with_link(NodeId(0), NodeId(1), wan)
                    .with_link(NodeId(1), NodeId(0), wan),
            ),
            ..NetworkModel::uniform(ChannelConfig::reliable())
        };
        assert_eq!(model.channel_between(ProcessId(0), ProcessId(5)), wan);
        assert_eq!(model.channel_between(ProcessId(6), ProcessId(1)), wan);
        assert_eq!(
            model.channel_between(ProcessId(0), ProcessId(1)),
            ChannelConfig::reliable(),
            "intra-node traffic uses the default"
        );
        assert!(!model.is_perfect(), "a lossy link spoils perfection");
    }

    #[test]
    fn with_link_replaces_existing_override() {
        let first = ChannelConfig::reliable().with_success_probability(0.5);
        let second = ChannelConfig::reliable().with_success_probability(0.9);
        let topo = Topology::with_nodes(["a", "b"])
            .with_link(NodeId(0), NodeId(1), first)
            .with_link(NodeId(0), NodeId(1), second);
        assert_eq!(topo.link(NodeId(0), NodeId(1)), Some(second));
        assert_eq!(topo.links().count(), 1);
    }

    #[test]
    fn min_latency_spans_default_and_overrides() {
        let slow = ChannelConfig::reliable().with_latency(Latency::Fixed(4));
        let fast = ChannelConfig::reliable().with_latency(Latency::Fixed(2));
        let model = NetworkModel {
            topology: Some(Topology::with_nodes(["a", "b"]).with_link(NodeId(0), NodeId(1), fast)),
            ..NetworkModel::uniform(slow)
        };
        assert_eq!(model.min_latency(), 2, "the fastest link bounds the lag");
        assert_eq!(NetworkModel::uniform(slow).min_latency(), 4);
    }

    #[test]
    fn max_latency_spans_default_and_overrides() {
        let fast = ChannelConfig::reliable().with_latency(Latency::Fixed(2));
        let slow =
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 1, max: 6 });
        let model = NetworkModel {
            topology: Some(Topology::with_nodes(["a", "b"]).with_link(NodeId(0), NodeId(1), slow)),
            ..NetworkModel::uniform(fast)
        };
        assert_eq!(model.max_latency(), 6, "the slowest link sizes the wheel");
        assert_eq!(NetworkModel::uniform(fast).max_latency(), 2);
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
            partitions: PartitionSchedule::none()
                .with_partition(Partition::cut(vec![vec![NodeId(0)], vec![NodeId(1)]], 9)),
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

    #[test]
    fn node_names_resolve() {
        let topo = Topology::with_nodes(["alpha", "beta"]);
        assert_eq!(topo.nodes(), 2);
        assert_eq!(topo.name(NodeId(1)), "beta");
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
