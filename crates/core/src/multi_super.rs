//! Multiple-supertopic extension (the paper's concluding remarks).
//!
//! The body of the paper assumes every topic has exactly one direct
//! supertopic; Sec. VIII notes that "multiple supertopics (i.e., multiple
//! inheritance) could be easily supported by ... adding a supertopic table
//! for each supertopic". This module implements that extension over the
//! [`da_topics::dag::TopicDag`] substrate: a [`MultiSuperTables`] keeps one
//! constant-size [`SuperTable`] per direct supertopic, and
//! [`plan_multi_dissemination`] runs the Fig. 7 election/spray logic
//! independently per table, so an event climbs *every* inclusion edge.

use crate::dissemination::{draw_gossip_targets, DisseminationPlan};
use crate::params::TopicParams;
use crate::tables::{SuperEntry, SuperTable};
use da_core::ProcessId;
use da_topics::dag::TopicDag;
use da_topics::TopicId;
use rand::Rng;
use std::collections::BTreeMap;

/// One supertopic table per direct supertopic of the owner's topic.
///
/// ```
/// use damulticast::{MultiSuperTables, SuperEntry};
/// use da_core::{rng_from_seed, ProcessId};
/// use da_topics::dag::TopicDag;
///
/// # fn main() -> Result<(), da_topics::TopicError> {
/// let mut dag = TopicDag::new();
/// let sport = dag.add_topic("sport", &[dag.root()])?;
/// let swiss = dag.add_topic("swiss", &[dag.root()])?;
/// let ski = dag.add_topic("ski", &[sport, swiss])?; // two supertopics
///
/// let mut tables = MultiSuperTables::new(ProcessId(0), ski, &dag, 3);
/// assert_eq!(tables.supertopics().count(), 2);
/// let mut rng = rng_from_seed(1);
/// tables.insert(SuperEntry { pid: ProcessId(7), topic: sport }, &mut rng);
/// assert_eq!(tables.table(sport).unwrap().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiSuperTables {
    owner: ProcessId,
    tables: BTreeMap<TopicId, SuperTable>,
}

impl MultiSuperTables {
    /// Creates one empty table of capacity `z` per direct supertopic of
    /// `topic` in `dag`. Root-like topics (no parents) get no tables.
    #[must_use]
    pub fn new(owner: ProcessId, topic: TopicId, dag: &TopicDag, z: usize) -> Self {
        let tables = dag
            .parents(topic)
            .iter()
            .map(|&parent| (parent, SuperTable::new(owner, z)))
            .collect();
        MultiSuperTables { owner, tables }
    }

    /// The owning process.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Iterates over the supertopics that have a table.
    pub fn supertopics(&self) -> impl Iterator<Item = TopicId> + '_ {
        self.tables.keys().copied()
    }

    /// The table for one supertopic, if it exists.
    #[must_use]
    pub fn table(&self, supertopic: TopicId) -> Option<&SuperTable> {
        self.tables.get(&supertopic)
    }

    /// Inserts an entry into the table of its own topic. Entries for
    /// topics that are not direct supertopics are rejected.
    /// Returns whether the entry was inserted.
    pub fn insert<R: Rng>(&mut self, entry: SuperEntry, rng: &mut R) -> bool {
        match self.tables.get_mut(&entry.topic) {
            Some(table) => table.insert(entry, rng),
            None => false,
        }
    }

    /// Total number of entries across all tables — the extension's memory
    /// footprint (`k · z` for `k` supertopics, still independent of the
    /// hierarchy's total size).
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.tables.values().map(SuperTable::len).sum()
    }

    /// True when every table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(SuperTable::is_empty)
    }

    /// Supertopics whose tables are still empty (bootstrap targets).
    #[must_use]
    pub fn unlinked(&self) -> Vec<TopicId> {
        self.tables
            .iter()
            .filter(|(_, t)| t.is_empty())
            .map(|(&topic, _)| topic)
            .collect()
    }
}

/// Runs the Fig. 7 inter-group election independently per supertopic table
/// and the intra-group gossip once, returning a single merged plan.
///
/// Each edge of the inclusion DAG gets its own `p_sel` draw, so the
/// per-edge expected message count matches the single-inheritance analysis
/// (`S·p_sel·p_a·z` per supertopic).
pub fn plan_multi_dissemination<R: Rng>(
    params: &TopicParams,
    group_size: usize,
    topic_table: &[ProcessId],
    tables: &MultiSuperTables,
    rng: &mut R,
) -> DisseminationPlan {
    let mut merged = DisseminationPlan {
        elected: false,
        super_targets: Vec::new(),
        gossip_targets: Vec::new(),
    };
    let p_sel = params.p_sel(group_size);
    let p_a = params.p_a();
    for table in tables.tables.values() {
        if table.is_empty() || p_sel <= 0.0 {
            continue;
        }
        if p_sel >= 1.0 || rng.gen_bool(p_sel) {
            merged.elected = true;
            for &entry in table.entries() {
                if p_a >= 1.0 || (p_a > 0.0 && rng.gen_bool(p_a)) {
                    merged.super_targets.push(entry);
                }
            }
        }
    }
    // Intra-group gossip is independent of the number of supertopics.
    draw_gossip_targets(
        params,
        group_size,
        topic_table,
        rng,
        &mut merged.gossip_targets,
    );
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::rng_from_seed;

    fn diamond() -> (TopicDag, TopicId, TopicId, TopicId) {
        // root ← sport, root ← swiss, {sport, swiss} ← ski
        let mut dag = TopicDag::new();
        let sport = dag.add_topic("sport", &[dag.root()]).unwrap();
        let swiss = dag.add_topic("swiss", &[dag.root()]).unwrap();
        let ski = dag.add_topic("ski", &[sport, swiss]).unwrap();
        (dag, sport, swiss, ski)
    }

    #[test]
    fn one_table_per_supertopic() {
        let (dag, sport, swiss, ski) = diamond();
        let t = MultiSuperTables::new(ProcessId(0), ski, &dag, 3);
        let supers: Vec<TopicId> = t.supertopics().collect();
        assert_eq!(supers.len(), 2);
        assert!(supers.contains(&sport));
        assert!(supers.contains(&swiss));
        assert!(t.is_empty());
        assert_eq!(t.unlinked().len(), 2);
    }

    #[test]
    fn root_topic_has_no_tables() {
        let (dag, ..) = diamond();
        let t = MultiSuperTables::new(ProcessId(0), dag.root(), &dag, 3);
        assert_eq!(t.supertopics().count(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn entries_are_routed_to_their_topic_table() {
        let (dag, sport, swiss, ski) = diamond();
        let mut t = MultiSuperTables::new(ProcessId(0), ski, &dag, 2);
        let mut rng = rng_from_seed(1);
        assert!(t.insert(
            SuperEntry {
                pid: ProcessId(1),
                topic: sport
            },
            &mut rng
        ));
        assert!(t.insert(
            SuperEntry {
                pid: ProcessId(2),
                topic: swiss
            },
            &mut rng
        ));
        // The DAG root is not a *direct* supertopic of ski.
        assert!(!t.insert(
            SuperEntry {
                pid: ProcessId(3),
                topic: dag.root()
            },
            &mut rng
        ));
        assert_eq!(t.table(sport).unwrap().len(), 1);
        assert_eq!(t.table(swiss).unwrap().len(), 1);
        assert_eq!(t.total_entries(), 2);
        assert_eq!(t.unlinked().len(), 0);
    }

    #[test]
    fn memory_is_tables_times_z_not_hierarchy_size() {
        let mut dag = TopicDag::new();
        let mut parents = Vec::new();
        for i in 0..10 {
            parents.push(dag.add_topic(&format!("p{i}"), &[dag.root()]).unwrap());
        }
        let child = dag.add_topic("child", &parents).unwrap();
        let mut t = MultiSuperTables::new(ProcessId(0), child, &dag, 3);
        let mut rng = rng_from_seed(2);
        let mut next = 1u32;
        for &p in &parents {
            for _ in 0..5 {
                t.insert(
                    SuperEntry {
                        pid: ProcessId(next),
                        topic: p,
                    },
                    &mut rng,
                );
                next += 1;
            }
        }
        // 10 tables × capacity 3, despite 5 offered per parent.
        assert_eq!(t.total_entries(), 30);
    }

    #[test]
    fn plan_covers_every_edge_when_forced() {
        let (dag, sport, swiss, ski) = diamond();
        let mut t = MultiSuperTables::new(ProcessId(0), ski, &dag, 1);
        let mut rng = rng_from_seed(3);
        t.insert(
            SuperEntry {
                pid: ProcessId(10),
                topic: sport,
            },
            &mut rng,
        );
        t.insert(
            SuperEntry {
                pid: ProcessId(20),
                topic: swiss,
            },
            &mut rng,
        );
        // g ≥ S and a = z force p_sel = p_a = 1.
        let params = TopicParams::paper_default()
            .with_g(100.0)
            .with_a(1.0)
            .with_z(1);
        let plan = plan_multi_dissemination(&params, 2, &[ProcessId(1)], &t, &mut rng);
        assert!(plan.elected);
        let topics: Vec<TopicId> = plan.super_targets.iter().map(|e| e.topic).collect();
        assert!(topics.contains(&sport));
        assert!(topics.contains(&swiss));
        assert_eq!(plan.gossip_targets.len(), 1);
    }

    #[test]
    fn per_edge_election_rate_matches_p_sel() {
        let (dag, sport, _swiss, ski) = diamond();
        let mut t = MultiSuperTables::new(ProcessId(0), ski, &dag, 1);
        let mut rng = rng_from_seed(4);
        t.insert(
            SuperEntry {
                pid: ProcessId(10),
                topic: sport,
            },
            &mut rng,
        );
        // S = 100, g = 5 → p_sel = 0.05 per edge; only the sport edge is
        // linked so the overall hit rate equals the per-edge rate.
        let params = TopicParams::paper_default().with_z(1).with_a(1.0);
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|_| {
                !plan_multi_dissemination(&params, 100, &[], &t, &mut rng)
                    .super_targets
                    .is_empty()
            })
            .count();
        let rate = hits as f64 / trials as f64;
        // Per-edge probability = p_sel · p_a = 0.05 · 1.0.
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }
}
