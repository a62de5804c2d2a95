//! The one process behind all three baselines. An algorithm is only the
//! tables its builder draws: a process gossips an event into every table
//! scoped to the event's group, so flat broadcast (one unscoped table),
//! hierarchical broadcast (an unscoped intra-group and inter-group table)
//! and multicast (one table per joined topic group) share the publish,
//! de-dup, interest check and relay below.

use da_core::{Exec, ExecProtocol, LabelId, ProcessId, WireSize};
use da_topics::{TopicHierarchy, TopicId};
use damulticast::{Event, EventId, EventSet};
use rand::Rng;
use std::sync::Arc;

use crate::common::InterestMap;

/// Wire message of every baseline: the event and the group it is gossiped
/// in, `None` for the unscoped tables.
#[derive(Debug, Clone, Copy)]
pub struct GossipMsg {
    /// The event in flight.
    pub event: Event,
    /// The topic group whose tables relay it; `None` selects the
    /// unscoped ones.
    pub group: Option<TopicId>,
}

impl WireSize for GossipMsg {
    fn wire_size(&self) -> usize {
        // A scoped message carries its 4-byte group id.
        self.event.wire_size() + if self.group.is_some() { 4 } else { 0 }
    }
}

/// One view a process gossips into.
#[derive(Debug, Clone)]
pub struct GossipTable {
    /// The topic group the view spans; `None` when it relays every event.
    pub group: Option<TopicId>,
    /// The partial view gossip targets are drawn from.
    pub view: Vec<ProcessId>,
    /// Targets drawn per relay.
    pub fanout: usize,
    /// The counter bumped per send through this table.
    pub sent: LabelId,
}

/// The receipt counters of one algorithm, interned under its label family.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Labels {
    delivered: LabelId,
    parasite: LabelId,
    duplicate: LabelId,
}

impl Labels {
    pub(crate) fn new(family: &str) -> Self {
        let intern = |name: &str| LabelId::intern(&format!("{family}.{name}"));
        Labels {
            delivered: intern("delivered"),
            parasite: intern("parasite"),
            duplicate: intern("duplicate"),
        }
    }
}

/// One process of a gossip baseline.
#[derive(Debug, Clone)]
pub struct GossipProcess {
    me: ProcessId,
    topic: TopicId,
    hierarchy: Arc<TopicHierarchy>,
    tables: Vec<GossipTable>,
    /// Event ids already received, parasites included: unlike
    /// `DaProcess`'s, not the delivered set.
    seen: EventSet,
    /// Ids of the events delivered to the application, in delivery order.
    delivered: Vec<EventId>,
    /// First receipts of events this process is not interested in.
    parasite_count: u64,
    /// Publications queued until the next round hook.
    pending_publish: Vec<GossipMsg>,
    next_sequence: u32,
    labels: Labels,
}

impl GossipProcess {
    /// A process of `interests`' population gossiping into `tables`.
    pub(crate) fn new(
        me: ProcessId,
        interests: &InterestMap,
        tables: Vec<GossipTable>,
        labels: Labels,
    ) -> Self {
        GossipProcess {
            me,
            topic: interests.interest_of(me),
            hierarchy: Arc::clone(interests.hierarchy()),
            tables,
            seen: EventSet::default(),
            delivered: Vec::new(),
            parasite_count: 0,
            pending_publish: Vec::new(),
            next_sequence: 0,
            labels,
        }
    }

    /// The process identity.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The views this process gossips into, as its builder drew them.
    #[must_use]
    pub fn tables(&self) -> &[GossipTable] {
        &self.tables
    }

    /// Membership entries held, summed over every table (Sec. VI-E.2).
    #[must_use]
    pub fn memory_entries(&self) -> usize {
        self.tables.iter().map(|t| t.view.len()).sum()
    }

    /// Ids of the events delivered to the application so far, in
    /// delivery order.
    #[must_use]
    pub fn delivered(&self) -> &[EventId] {
        &self.delivered
    }

    /// True when `id` was delivered here; a parasite never is.
    #[must_use]
    pub fn has_delivered(&self, id: EventId) -> bool {
        self.delivered.contains(&id)
    }

    /// Number of parasite receptions: first receipts of events of topics
    /// this process did not subscribe to.
    #[must_use]
    pub fn parasite_count(&self) -> u64 {
        self.parasite_count
    }

    /// Queues an event for publication on the process' own topic. It is
    /// gossiped in that topic's group when a table spans it, and through
    /// the unscoped tables otherwise.
    ///
    /// # Panics
    /// On the publish after sequence `u32::MAX - 1`: ids never wrap.
    pub fn publish(&mut self, payload: impl AsRef<[u8]>) -> EventId {
        let sequence = self.next_sequence;
        self.next_sequence = sequence.checked_add(1).expect("sequence past u32::MAX");
        let event = Event::new(self.me, sequence, self.topic, payload);
        let own = Some(self.topic);
        let group = own.filter(|_| self.tables.iter().any(|t| t.group == own));
        self.pending_publish.push(GossipMsg { event, group });
        event.id
    }

    /// First receipt: deliver or count the parasite, then relay through
    /// every table of the message's group — parasites relay too, which is
    /// what interest-oblivious gossip relies on.
    fn receive<X: Exec<Msg = GossipMsg>>(&mut self, msg: GossipMsg, ctx: &mut X) {
        if !self.seen.insert(msg.event.id) {
            ctx.bump_id(self.labels.duplicate);
            return;
        }
        let interested = self.hierarchy.includes_or_eq(self.topic, msg.event.topic);
        if interested {
            ctx.bump_id(self.labels.delivered);
        } else {
            self.parasite_count += 1;
            ctx.bump_id(self.labels.parasite);
        }
        for table in self.tables.iter().filter(|t| t.group == msg.group) {
            for target in gossip_targets(&table.view, table.fanout, ctx.rng()) {
                ctx.bump_id(table.sent);
                ctx.send(target, msg);
            }
        }
        if interested {
            self.delivered.push(msg.event.id);
        }
    }
}

impl ExecProtocol for GossipProcess {
    type Msg = GossipMsg;

    fn on_message<X: Exec<Msg = GossipMsg>>(
        &mut self,
        _from: ProcessId,
        msg: GossipMsg,
        ctx: &mut X,
    ) {
        self.receive(msg, ctx);
    }

    fn on_round<X: Exec<Msg = GossipMsg>>(&mut self, _round: u64, ctx: &mut X) {
        let mut publishes = std::mem::take(&mut self.pending_publish);
        for msg in publishes.drain(..) {
            self.receive(msg, ctx);
        }
        // Kept for the next publication, which would otherwise allocate.
        self.pending_publish = publishes;
    }
}

/// Uniformly samples up to `k` distinct members of `pool`, one draw per
/// target kept.
fn gossip_targets<R: Rng>(pool: &[ProcessId], k: usize, rng: &mut R) -> Vec<ProcessId> {
    let mut targets = pool.to_vec();
    da_core::keep_random(&mut targets, k, rng);
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_broadcast_network;
    use da_core::rng_from_seed;
    use da_membership::FanoutRule;
    use da_simnet::{Engine, SimConfig};

    #[test]
    fn a_parasite_is_deduplicated_but_never_delivered() {
        // A root subscriber and a leaf subscriber, each the other's view.
        let interests = InterestMap::linear(&[1, 1]);
        let procs = build_broadcast_network(&interests, 3.0, FanoutRule::default(), 1).unwrap();
        let mut engine = Engine::new(SimConfig::default().with_seed(1), procs);
        let root_event = engine.process_mut(ProcessId(0)).publish("x");
        let leaf_event = engine.process_mut(ProcessId(1)).publish("y");
        engine.run_until_quiescent(20);

        let (root, leaf) = (engine.process(ProcessId(0)), engine.process(ProcessId(1)));
        assert!(root.has_delivered(root_event) && root.has_delivered(leaf_event));
        assert_eq!(root.delivered().len(), 2);
        assert_eq!(leaf.parasite_count(), 1);
        assert!(!leaf.has_delivered(root_event));
        assert_eq!(leaf.delivered().len(), 1);
        // Each event came back to its publisher once.
        assert_eq!(engine.counters().get("bc.duplicate"), 2);
        assert_eq!(engine.counters().get("bc.parasite"), 1);
    }

    #[test]
    #[should_panic(expected = "sequence past u32::MAX")]
    fn a_publisher_out_of_ids_panics_rather_than_wrap() {
        let interests = InterestMap::linear(&[1]);
        let mut procs = build_broadcast_network(&interests, 3.0, FanoutRule::default(), 1).unwrap();
        procs[0].next_sequence = u32::MAX - 1;
        assert_eq!(procs[0].publish("last").sequence, u32::MAX - 1);
        assert_eq!(procs[0].next_sequence, u32::MAX);
        procs[0].publish("one too many");
    }

    #[test]
    fn gossip_targets_distinct() {
        let pool: Vec<ProcessId> = (0..20).map(ProcessId).collect();
        let mut rng = rng_from_seed(1);
        let t = gossip_targets(&pool, 8, &mut rng);
        assert_eq!(t.len(), 8);
        let set: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(set.len(), 8);
        assert_eq!(gossip_targets(&pool, 100, &mut rng).len(), 20);
    }
}
