//! Baseline (b): gossip-based **multicast** (Sec. IV-A pattern 1,
//! Sec. VI-E of the paper).
//!
//! One gossip group exists *per topic*; a subscriber of `Ta` joins the
//! group of `Ta` **and of every subtopic of `Ta`** (the dashed-arrow
//! pattern of Fig. 1). A published event of topic `Tb` is disseminated in
//! the group of `Tb` only — whose members are exactly the processes
//! interested in `Tb`, so there are no parasites and no inter-group links.
//! The price is memory: a subscriber holds one `(b+1)·ln(S')` table per
//! joined group and must track subtopic creation, which is what
//! daMulticast's two-table design eliminates.

use crate::common::{gossip_targets, DeliveryLog, InterestMap};
use da_core::{derive_seed, rng_from_seed, Exec, ExecProtocol, LabelId, ProcessId, WireSize};
use da_membership::{static_init::static_topic_tables, FanoutRule};
use da_topics::TopicId;
use damulticast::{DaError, Event, EventId};
use std::collections::HashMap;
use std::sync::LazyLock;

static SENT: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("mc.sent"));
static DELIVERED: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("mc.delivered"));
static PARASITE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("mc.parasite"));
static DUPLICATE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("mc.duplicate"));

/// Wire message: the event plus the topic group it is gossiped in.
#[derive(Debug, Clone)]
pub struct McMsg {
    /// The event in flight.
    pub event: Event,
    /// The topic group the gossip is confined to.
    pub group: TopicId,
}

impl WireSize for McMsg {
    fn wire_size(&self) -> usize {
        self.event.wire_size() + 4
    }
}

/// One process of the gossip-multicast baseline.
#[derive(Debug, Clone)]
pub struct MulticastProcess {
    me: ProcessId,
    interests: InterestMap,
    /// One gossip table per joined group (own topic + all subtopics),
    /// with the per-group fanout alongside.
    tables: HashMap<TopicId, (Vec<ProcessId>, usize)>,
    log: DeliveryLog,
    pending: Vec<Event>,
    next_sequence: u64,
}

impl MulticastProcess {
    /// The process identity.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Queues an event for publication on the process' interest topic.
    pub fn publish(&mut self, payload: impl Into<Vec<u8>>) -> EventId {
        let topic = self.interests.interest_of(self.me);
        let event = Event::new(self.me, self.next_sequence, topic, payload);
        self.next_sequence += 1;
        let id = event.id();
        self.pending.push(event);
        id
    }

    /// Delivery/parasite log.
    #[must_use]
    pub fn log(&self) -> &DeliveryLog {
        &self.log
    }

    /// Number of joined groups — `t` tables in the worst case (Sec.
    /// VI-E.2 (b)).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.tables.len()
    }

    /// Total membership entries across all joined groups.
    #[must_use]
    pub fn memory_entries(&self) -> usize {
        self.tables.values().map(|(t, _)| t.len()).sum()
    }

    fn relay<X: Exec<Msg = McMsg>>(&mut self, event: &Event, group: TopicId, ctx: &mut X) {
        let Some((table, fanout)) = self.tables.get(&group) else {
            return;
        };
        let targets = gossip_targets(table, *fanout, ctx.rng());
        for t in targets {
            ctx.bump_id(*SENT);
            ctx.send(
                t,
                McMsg {
                    event: event.clone(),
                    group,
                },
            );
        }
    }
}

impl ExecProtocol for MulticastProcess {
    type Msg = McMsg;

    fn on_message<X: Exec<Msg = McMsg>>(&mut self, _from: ProcessId, msg: McMsg, ctx: &mut X) {
        // Group membership == interest, so every receipt is wanted.
        let interested = self.interests.wants(self.me, msg.event.topic());
        if self.log.on_receive(&msg.event, interested) {
            if interested {
                ctx.bump_id(*DELIVERED);
            } else {
                // Unreachable in a correct build; kept for the comparison
                // harness's invariant check.
                ctx.bump_id(*PARASITE);
            }
            let event = msg.event;
            self.relay(&event, msg.group, ctx);
        } else {
            ctx.bump_id(*DUPLICATE);
        }
    }

    fn on_round<X: Exec<Msg = McMsg>>(&mut self, _round: u64, ctx: &mut X) {
        let pending = std::mem::take(&mut self.pending);
        for event in pending {
            if self.log.on_receive(&event, true) {
                ctx.bump_id(*DELIVERED);
            }
            // Publish in the event's own topic group only (Fig. 1,
            // pattern 1).
            self.relay(&event, event.topic(), ctx);
        }
    }
}

/// Builds the multicast population. For every topic, the group contains
/// the processes whose interest is that topic *or any supertopic* (they
/// joined downwards); each member receives a static `(b+1)·ln(S')` table
/// over that group.
///
/// # Errors
///
/// Returns [`DaError::EmptyGroup`] for an empty population.
pub fn build_multicast_network(
    interests: &InterestMap,
    b: f64,
    fanout: FanoutRule,
    seed: u64,
) -> Result<Vec<MulticastProcess>, DaError> {
    let n = interests.population();
    if n == 0 {
        return Err(DaError::EmptyGroup {
            topic: ".".to_owned(),
        });
    }
    let hierarchy = interests.hierarchy().clone();
    let mut rng = rng_from_seed(derive_seed(seed, 0x4C));
    let mut per_process: Vec<HashMap<TopicId, (Vec<ProcessId>, usize)>> = vec![HashMap::new(); n];

    for topic in hierarchy.iter() {
        let group = interests.audience(topic);
        if group.is_empty() {
            continue;
        }
        let tables =
            static_topic_tables(&group, b, &mut rng).map_err(|e| DaError::InvalidParameter {
                reason: e.to_string(),
            })?;
        let f = fanout.fanout(group.len());
        for &member in &group {
            per_process[member.index()].insert(topic, (tables[&member].clone(), f));
        }
    }

    Ok(per_process
        .into_iter()
        .enumerate()
        .map(|(i, tables)| MulticastProcess {
            me: ProcessId::from_index(i),
            interests: interests.clone(),
            tables,
            log: DeliveryLog::new(),
            pending: Vec::new(),
            next_sequence: 0,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_simnet::{Engine, SimConfig};

    fn network() -> Vec<MulticastProcess> {
        let interests = InterestMap::linear(&[2, 3, 10]);
        build_multicast_network(&interests, 3.0, FanoutRule::LnPlusC { c: 5.0 }, 1).unwrap()
    }

    #[test]
    fn subscribers_join_own_and_subtopic_groups() {
        let procs = network();
        // Root subscribers join 3 groups (root + 2 descendants), mid 2,
        // leaf 1 — the memory overhead the paper criticises.
        assert_eq!(procs[0].group_count(), 3);
        assert_eq!(procs[2].group_count(), 2);
        assert_eq!(procs[14].group_count(), 1);
        assert!(procs[0].memory_entries() > procs[14].memory_entries());
    }

    #[test]
    fn leaf_event_reaches_all_interested() {
        let mut engine = Engine::new(SimConfig::default().with_seed(2), network());
        let id = engine.process_mut(ProcessId(14)).publish("leaf");
        engine.run_until_quiescent(50);
        for i in 0..15 {
            assert!(
                engine.process(ProcessId(i)).log().has_delivered(id),
                "process {i} interested in T2 events but missed it"
            );
        }
    }

    #[test]
    fn root_event_stays_in_root_group() {
        let mut engine = Engine::new(SimConfig::default().with_seed(3), network());
        let id = engine.process_mut(ProcessId(0)).publish("root-only");
        engine.run_until_quiescent(50);
        assert!(engine.process(ProcessId(1)).log().has_delivered(id));
        for i in 2..15 {
            assert!(
                !engine.process(ProcessId(i)).log().has_delivered(id),
                "process {i} is not interested in root events"
            );
        }
    }

    #[test]
    fn no_parasites_ever() {
        let mut engine = Engine::new(SimConfig::default().with_seed(4), network());
        engine.process_mut(ProcessId(0)).publish("a");
        engine.process_mut(ProcessId(5)).publish("b");
        engine.process_mut(ProcessId(14)).publish("c");
        engine.run_until_quiescent(60);
        assert_eq!(engine.counters().get("mc.parasite"), 0);
        let total: u64 = engine.processes().map(|(_, p)| p.log().parasites()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn publisher_without_subscription_unreachable_groups_safe() {
        // Publishing into a group the process belongs to by construction:
        // a leaf publishes and relays only within its own group.
        let mut engine = Engine::new(SimConfig::default().with_seed(5), network());
        engine.process_mut(ProcessId(14)).publish("x");
        engine.run_until_quiescent(50);
        assert!(engine.counters().get("mc.sent") > 0);
        assert_eq!(engine.counters().get("mc.parasite"), 0);
    }

    #[test]
    fn memory_exceeds_damulticast_shape() {
        // The paper's Sec. VI-E.2: multicast memory is Σ per-level tables,
        // daMulticast's is one table + z. For a root subscriber the sum is
        // strictly larger than any single-level table.
        let procs = network();
        let root_mem = procs[0].memory_entries();
        let leaf_mem = procs[14].memory_entries();
        assert!(root_mem > leaf_mem);
    }

    #[test]
    fn empty_population_rejected() {
        let interests = InterestMap::new(
            std::sync::Arc::new(da_topics::TopicHierarchy::new()),
            vec![],
        );
        assert!(build_multicast_network(&interests, 3.0, FanoutRule::default(), 1).is_err());
    }
}
