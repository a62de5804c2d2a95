//! The multiple-inheritance protocol — Sec. VIII of the paper, runnable.
//!
//! "Multiple supertopics (i.e., multiple inheritance) could be easily
//! supported by either adapting the membership algorithm or by adding a
//! supertopic table for each supertopic. Neither would hamper the overall
//! performance of the algorithm."
//!
//! [`DagProcess`] takes the second route: one [`SuperTable`] per direct
//! supertopic (a [`MultiSuperTables`]), with the Fig. 7 election/spray
//! decision run independently per table, so an event climbs *every*
//! inclusion edge of the [`TopicDag`]. Everything else — intra-group
//! gossip, de-duplication, interest checks — is unchanged from
//! [`crate::DaProcess`].
//!
//! The DAG variant is provided in the paper's static simulation mode
//! (tables drawn at build time): the bootstrap/maintenance tasks of
//! Figs. 4 & 6 generalise per-table exactly as in the tree case and are
//! exercised there; duplicating them here would not change what the
//! extension demonstrates (events crossing *all* inclusion edges with
//! per-edge cost matching the single-inheritance analysis).

use crate::event::{Event, EventId};
use crate::message::DaMsg;
use crate::multi_super::{plan_multi_dissemination, MultiSuperTables};
use crate::params::TopicParams;
use crate::tables::SuperEntry;
use crate::DaError;
use da_core::{derive_seed, rng_from_seed, Exec, ExecProtocol, KeyBuildHasher, LabelId, ProcessId};
use da_membership::static_init::static_topic_tables;
use da_topics::dag::TopicDag;
use da_topics::TopicId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, LazyLock};

/// A daMulticast process over a multiple-inheritance topic DAG.
///
/// ```
/// use da_topics::dag::TopicDag;
/// use damulticast::{DagNetwork, TopicParams};
/// use da_core::ProcessId;
/// use da_simnet::{Engine, SimConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dag = TopicDag::new();
/// let sport = dag.add_topic("sport", &[dag.root()])?;
/// let swiss = dag.add_topic("swiss", &[dag.root()])?;
/// let ski = dag.add_topic("ski", &[sport, swiss])?; // two supertopics
///
/// let groups = vec![
///     (sport, (0..5).map(ProcessId).collect()),
///     (swiss, (5..10).map(ProcessId).collect()),
///     (ski, (10..20).map(ProcessId).collect()),
/// ];
/// let params = TopicParams::paper_default().with_g(30.0).with_a(3.0);
/// let net = DagNetwork::build(dag, groups, params, 7)?;
/// let mut engine = Engine::new(SimConfig::default().with_seed(7), net.into_processes());
/// engine.process_mut(ProcessId(12)).publish("slalom");
/// engine.run_until_quiescent(64);
/// // The event climbed BOTH inclusion edges.
/// assert!(engine.processes().filter(|(_, p)| !p.delivered().is_empty()).count() > 10);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct DagProcess {
    me: ProcessId,
    topic: TopicId,
    dag: Arc<TopicDag>,
    params: TopicParams,
    group_size: usize,
    topic_table: Vec<ProcessId>,
    supers: MultiSuperTables,
    seen: HashSet<EventId, KeyBuildHasher>,
    delivered: Vec<Event>,
    parasite_count: u64,
    pending_publish: Vec<Event>,
    next_sequence: u64,
    label_intra: LabelId,
    label_inter: LabelId,
    label_delivered: LabelId,
}

static PARASITE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("dag.parasite"));
static DUPLICATE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("dag.duplicate"));

impl DagProcess {
    /// Builds a static-mode DAG process with pre-drawn tables.
    #[must_use]
    pub fn new(
        me: ProcessId,
        topic: TopicId,
        dag: Arc<TopicDag>,
        params: TopicParams,
        group_size: usize,
        topic_table: Vec<ProcessId>,
        super_entries: Vec<SuperEntry>,
    ) -> Self {
        let mut supers = MultiSuperTables::new(me, topic, &dag, params.z);
        let mut rng = rng_from_seed(derive_seed(0xDA6, me.0 as u64));
        for entry in super_entries {
            supers.insert(entry, &mut rng);
        }
        let name = dag.name(topic).to_owned();
        DagProcess {
            me,
            topic,
            dag,
            params,
            group_size,
            topic_table,
            supers,
            seen: HashSet::default(),
            delivered: Vec::new(),
            parasite_count: 0,
            pending_publish: Vec::new(),
            next_sequence: 0,
            label_intra: LabelId::intern(&format!("dag.intra.{name}")),
            label_inter: LabelId::intern(&format!("dag.inter_out.{name}")),
            label_delivered: LabelId::intern(&format!("dag.delivered.{name}")),
        }
    }

    /// The process identity.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The topic this process subscribed to.
    #[must_use]
    pub fn topic(&self) -> TopicId {
        self.topic
    }

    /// The per-supertopic link tables.
    #[must_use]
    pub fn super_tables(&self) -> &MultiSuperTables {
        &self.supers
    }

    /// The topic table (view of the own group).
    #[must_use]
    pub fn topic_table(&self) -> &[ProcessId] {
        &self.topic_table
    }

    /// Events delivered to the application.
    #[must_use]
    pub fn delivered(&self) -> &[Event] {
        &self.delivered
    }

    /// True when `id` was delivered here: every id in the
    /// de-duplication set was (a parasite is turned away before it is
    /// recorded).
    #[must_use]
    pub fn has_delivered(&self, id: EventId) -> bool {
        self.seen.contains(&id)
    }

    /// Parasite receptions (events outside this process' interest cone).
    #[must_use]
    pub fn parasite_count(&self) -> u64 {
        self.parasite_count
    }

    /// Total membership entries: one topic table plus `k·z` supertable
    /// entries for `k` direct supertopics — still independent of the DAG's
    /// total size, the Sec. VIII claim.
    #[must_use]
    pub fn memory_entries(&self) -> usize {
        self.topic_table.len() + self.supers.total_entries()
    }

    /// Queues a publication on this process' own topic.
    pub fn publish(&mut self, payload: impl Into<Vec<u8>>) -> EventId {
        let event = Event::new(self.me, self.next_sequence, self.topic, payload);
        self.next_sequence += 1;
        let id = event.id();
        self.pending_publish.push(event);
        id
    }

    /// DAG interest: `topic` is our own topic or a DAG-descendant of it.
    #[must_use]
    pub fn is_interested_in(&self, topic: TopicId) -> bool {
        topic == self.topic || self.dag.includes(self.topic, topic)
    }

    fn disseminate<X: Exec<Msg = DaMsg>>(&mut self, event: &Event, ctx: &mut X) {
        let plan = plan_multi_dissemination(
            &self.params,
            self.group_size,
            &self.topic_table,
            &self.supers,
            ctx.rng(),
        );
        for entry in &plan.super_targets {
            ctx.bump_id(self.label_inter);
            ctx.send(
                entry.pid,
                DaMsg::Event {
                    event: event.clone(),
                    sender_topic: self.topic,
                },
            );
        }
        for &target in &plan.gossip_targets {
            ctx.bump_id(self.label_intra);
            ctx.send(
                target,
                DaMsg::Event {
                    event: event.clone(),
                    sender_topic: self.topic,
                },
            );
        }
    }

    /// Hands a fresh `event` to the application and gossips it on, from
    /// the borrow first so the log takes the owned handle without a clone.
    fn deliver<X: Exec<Msg = DaMsg>>(&mut self, event: Event, ctx: &mut X) {
        ctx.bump_id(self.label_delivered);
        self.disseminate(&event, ctx);
        self.delivered.push(event);
    }
}

impl ExecProtocol for DagProcess {
    type Msg = DaMsg;

    fn on_message<X: Exec<Msg = DaMsg>>(&mut self, _from: ProcessId, msg: DaMsg, ctx: &mut X) {
        // Static mode: only event traffic exists in a DAG network.
        let DaMsg::Event { event, .. } = msg else {
            return;
        };
        if !self.is_interested_in(event.topic()) {
            self.parasite_count += 1;
            ctx.bump_id(*PARASITE);
            return;
        }
        if !self.seen.insert(event.id()) {
            ctx.bump_id(*DUPLICATE);
            return;
        }
        self.deliver(event, ctx);
    }

    fn on_round<X: Exec<Msg = DaMsg>>(&mut self, _round: u64, ctx: &mut X) {
        let publishes = std::mem::take(&mut self.pending_publish);
        for event in publishes {
            if self.seen.insert(event.id()) {
                self.deliver(event, ctx);
            } else {
                self.disseminate(&event, ctx);
            }
        }
    }
}

/// A static population over a topic DAG: one gossip group per topic, one
/// supertable per inclusion edge.
#[derive(Debug)]
pub struct DagNetwork {
    dag: Arc<TopicDag>,
    groups: Vec<(TopicId, Vec<ProcessId>)>,
    processes: Vec<DagProcess>,
}

impl DagNetwork {
    /// Builds the network from `(topic, members)` groups. For every direct
    /// supertopic edge of a populated group, a supertable is drawn from
    /// the nearest populated group reachable upward from that supertopic
    /// (breadth-first over the DAG's parent edges — the DAG analogue of
    /// the paper's "first topic that induces Ti", Sec. V-A.1).
    ///
    /// # Errors
    ///
    /// Returns [`DaError::InvalidParameter`] on invalid parameters or
    /// non-dense process ids, [`DaError::EmptyGroup`] when nobody
    /// subscribes to anything.
    pub fn build(
        dag: TopicDag,
        groups: Vec<(TopicId, Vec<ProcessId>)>,
        params: TopicParams,
        seed: u64,
    ) -> Result<Self, DaError> {
        params.validate()?;
        if groups.iter().all(|(_, m)| m.is_empty()) {
            return Err(DaError::EmptyGroup {
                topic: "(dag root)".to_owned(),
            });
        }
        let dag = Arc::new(dag);
        let members_of: HashMap<TopicId, &Vec<ProcessId>> =
            groups.iter().map(|(t, m)| (*t, m)).collect();
        let mut rng = rng_from_seed(derive_seed(seed, 0xDA6_57A7));
        let mut processes: Vec<(ProcessId, DagProcess)> = Vec::new();

        for (topic, members) in &groups {
            if members.is_empty() {
                continue;
            }
            let topic_tables = static_topic_tables(members, params.b, &mut rng).map_err(|e| {
                DaError::InvalidParameter {
                    reason: e.to_string(),
                }
            })?;

            // One supertable per direct parent edge, sourced from the
            // nearest populated ancestor reachable from that parent.
            let mut per_edge: Vec<(TopicId, Vec<ProcessId>)> = Vec::new();
            for &parent in dag.parents(*topic) {
                if let Some((anchor, supergroup)) = nearest_populated(&dag, parent, &members_of) {
                    // Entries are tagged with the *edge's* parent topic so
                    // they land in that edge's table; the contacts come
                    // from the anchor group.
                    let _ = anchor;
                    per_edge.push((parent, supergroup.clone()));
                }
            }

            for &pid in members {
                let mut supers = Vec::new();
                for (edge_topic, supergroup) in &per_edge {
                    use rand::seq::SliceRandom;
                    let mut pool: Vec<ProcessId> =
                        supergroup.iter().copied().filter(|&p| p != pid).collect();
                    pool.shuffle(&mut rng);
                    pool.truncate(params.z);
                    supers.extend(pool.into_iter().map(|p| SuperEntry {
                        pid: p,
                        topic: *edge_topic,
                    }));
                }
                processes.push((
                    pid,
                    DagProcess::new(
                        pid,
                        *topic,
                        Arc::clone(&dag),
                        params,
                        members.len(),
                        topic_tables[&pid].clone(),
                        supers,
                    ),
                ));
            }
        }

        processes.sort_by_key(|(pid, _)| *pid);
        for (i, (pid, _)) in processes.iter().enumerate() {
            if pid.index() != i {
                return Err(DaError::InvalidParameter {
                    reason: format!("process ids must be dense 0..n; found {pid} at {i}"),
                });
            }
        }
        Ok(DagNetwork {
            dag,
            groups,
            processes: processes.into_iter().map(|(_, p)| p).collect(),
        })
    }

    /// The topic DAG.
    #[must_use]
    pub fn dag(&self) -> &Arc<TopicDag> {
        &self.dag
    }

    /// The `(topic, members)` groups.
    #[must_use]
    pub fn groups(&self) -> &[(TopicId, Vec<ProcessId>)] {
        &self.groups
    }

    /// Consumes the network, yielding processes for the engine.
    #[must_use]
    pub fn into_processes(self) -> Vec<DagProcess> {
        self.processes
    }
}

/// Breadth-first search upward from `start` (inclusive) for the nearest
/// topic with a non-empty group.
fn nearest_populated<'a>(
    dag: &TopicDag,
    start: TopicId,
    members_of: &HashMap<TopicId, &'a Vec<ProcessId>>,
) -> Option<(TopicId, &'a Vec<ProcessId>)> {
    let mut queue = VecDeque::from([start]);
    let mut seen = HashSet::from([start]);
    while let Some(t) = queue.pop_front() {
        if let Some(members) = members_of.get(&t) {
            if !members.is_empty() {
                return Some((t, members));
            }
        }
        for &p in dag.parents(t) {
            if seen.insert(p) {
                queue.push_back(p);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_simnet::{Engine, SimConfig};

    /// root ← sport, root ← swiss, {sport, swiss} ← ski; groups:
    /// 4 root fans (pids 0–3), 6 sport fans (4–9), 6 swiss fans (10–15),
    /// 12 ski fans (16–27).
    fn diamond_network(seed: u64) -> (DagNetwork, [TopicId; 4]) {
        let mut dag = TopicDag::new();
        let root = dag.root();
        let sport = dag.add_topic("sport", &[root]).unwrap();
        let swiss = dag.add_topic("swiss", &[root]).unwrap();
        let ski = dag.add_topic("ski", &[sport, swiss]).unwrap();
        let groups = vec![
            (root, (0..4).map(ProcessId).collect()),
            (sport, (4..10).map(ProcessId).collect()),
            (swiss, (10..16).map(ProcessId).collect()),
            (ski, (16..28).map(ProcessId).collect()),
        ];
        // Small groups: pin the trade-off knobs high so single events
        // cross every edge deterministically enough to assert on.
        let params = TopicParams::paper_default().with_g(30.0).with_a(3.0);
        let net = DagNetwork::build(dag, groups, params, seed).unwrap();
        (net, [root, sport, swiss, ski])
    }

    #[test]
    fn ski_event_climbs_both_edges() {
        let (net, _) = diamond_network(1);
        let mut engine = Engine::new(SimConfig::default().with_seed(1), net.into_processes());
        let id = engine.process_mut(ProcessId(20)).publish("slalom gold");
        engine.run_until_quiescent(64);

        let count = |range: std::ops::Range<u32>| {
            range
                .filter(|&i| engine.process(ProcessId(i)).has_delivered(id))
                .count()
        };
        assert_eq!(count(16..28), 12, "all ski fans");
        assert!(count(4..10) >= 5, "sport fans via the sport edge");
        assert!(count(10..16) >= 5, "swiss fans via the swiss edge");
        assert!(count(0..4) >= 3, "root fans via either path");
        assert_eq!(engine.counters().get("dag.parasite"), 0);
    }

    #[test]
    fn diamond_paths_deduplicate_at_root() {
        let (net, _) = diamond_network(2);
        let mut engine = Engine::new(SimConfig::default().with_seed(2), net.into_processes());
        engine.process_mut(ProcessId(20)).publish("x");
        engine.run_until_quiescent(64);
        // Root fans sit on two converging paths; dedup must keep delivery
        // single.
        for i in 0..4 {
            let p = engine.process(ProcessId(i));
            assert!(p.delivered().len() <= 1);
        }
        assert!(
            engine.counters().get("dag.duplicate") > 0,
            "converging paths must produce (suppressed) duplicates"
        );
    }

    #[test]
    fn sibling_subtrees_stay_isolated() {
        let (net, _) = diamond_network(3);
        let mut engine = Engine::new(SimConfig::default().with_seed(3), net.into_processes());
        // A sport-only event: swiss fans must not receive it.
        let id = engine.process_mut(ProcessId(5)).publish("football");
        engine.run_until_quiescent(64);
        for i in 10..16 {
            assert!(
                !engine.process(ProcessId(i)).has_delivered(id),
                "swiss fan {i} got a sport-only event"
            );
        }
        for i in 16..28 {
            assert!(
                !engine.process(ProcessId(i)).has_delivered(id),
                "ski fan {i} got a strict-supertopic event"
            );
        }
        assert_eq!(engine.counters().get("dag.parasite"), 0);
    }

    #[test]
    fn memory_is_edge_count_times_z() {
        let (net, _) = diamond_network(4);
        let procs = net.into_processes();
        // Ski fans have two edges → up to 2z super entries; sport/swiss
        // fans one edge → up to z; root fans none.
        let by_pid = |i: u32| &procs[i as usize];
        assert!(by_pid(20).super_tables().total_entries() <= 2 * 3);
        assert!(by_pid(20).super_tables().total_entries() > 3);
        assert!(by_pid(5).super_tables().total_entries() <= 3);
        assert_eq!(by_pid(0).super_tables().total_entries(), 0);
    }

    #[test]
    fn empty_parent_group_bridged_upward() {
        // root ← a ← b, where a has no subscribers: b links to root.
        let mut dag = TopicDag::new();
        let root = dag.root();
        let a = dag.add_topic("a", &[root]).unwrap();
        let b = dag.add_topic("b", &[a]).unwrap();
        let groups = vec![
            (root, (0..4).map(ProcessId).collect()),
            (a, vec![]),
            (b, (4..12).map(ProcessId).collect()),
        ];
        let params = TopicParams::paper_default().with_g(30.0).with_a(3.0);
        let net = DagNetwork::build(dag, groups, params, 5).unwrap();
        let procs = net.into_processes();
        for p in procs.iter().skip(4) {
            assert!(
                p.memory_entries() > p.topic_table().len(),
                "bridged links exist"
            );
        }
        let mut engine = Engine::new(SimConfig::default().with_seed(5), procs);
        let id = engine.process_mut(ProcessId(6)).publish("up");
        engine.run_until_quiescent(64);
        let roots = (0..4)
            .filter(|&i| engine.process(ProcessId(i)).has_delivered(id))
            .count();
        assert!(roots >= 3, "bridge must carry the event to the root group");
    }

    #[test]
    fn build_validation() {
        let dag = TopicDag::new();
        let root = dag.root();
        assert!(matches!(
            DagNetwork::build(dag, vec![(root, vec![])], TopicParams::paper_default(), 1),
            Err(DaError::EmptyGroup { .. })
        ));
        let dag = TopicDag::new();
        let root = dag.root();
        assert!(DagNetwork::build(
            dag,
            vec![(root, vec![ProcessId(5)])], // non-dense
            TopicParams::paper_default(),
            1
        )
        .is_err());
        // A NaN election weight would pass `gen_bool` a NaN probability
        // on the first publication.
        let dag = TopicDag::new();
        let root = dag.root();
        assert!(matches!(
            DagNetwork::build(
                dag,
                vec![(root, vec![ProcessId(0), ProcessId(1)])],
                TopicParams::paper_default().with_g(f64::NAN),
                1
            ),
            Err(DaError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn topic_table_helper_access() {
        let (net, ids) = diamond_network(6);
        let procs = net.into_processes();
        assert_eq!(procs[20].topic(), ids[3]);
        assert_eq!(procs[20].id(), ProcessId(20));
        assert!(procs[20].is_interested_in(ids[3]));
        assert!(!procs[20].is_interested_in(ids[1]));
        assert!(procs[0].is_interested_in(ids[3]), "root wants everything");
    }
}
