//! Network assembly: build a whole population of [`DaProcess`]es from a
//! topic hierarchy and group membership lists.
//!
//! One [`Network`] holds either of the protocol's two modes, and one
//! parameter set serves every group:
//!
//! * static ([`Network::linear`], [`Network::from_groups`]) — the paper's
//!   simulation setting (Sec. VII-A): every table is drawn once,
//!   uniformly at random, before round 0, and never changes. A process
//!   gets one supertable per direct supertopic (Sec. VIII), pointing into
//!   the *nearest non-empty group* at or above that supertopic
//!   (Sec. V-A.1, footnote 4).
//! * dynamic ([`Network::dynamic_linear`]) — the full protocol: processes
//!   only get a handful of same-group contacts plus a random overlay, and
//!   discover super contacts through the bootstrap.

use crate::error::DaError;
use crate::group::Group;
use crate::params::TopicParams;
use crate::protocol::DaProcess;
use crate::tables::SuperEntry;
use da_core::{derive_seed, rng_from_seed, ProcessId};
use da_membership::static_init::{sample_others, static_super_tables, static_topic_tables};
use da_membership::Overlay;
use da_topics::{TopicHierarchy, TopicId};
use std::collections::HashMap;
use std::sync::Arc;

/// One topic group: the topic and its interested processes.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// The group's topic.
    pub topic: TopicId,
    /// The processes interested in the topic (`Π_Ti`).
    pub members: Vec<ProcessId>,
}

/// A fully-specified population, ready to run under a
/// `da_simnet::Engine` or a `da_runtime::Runtime`.
///
/// ```
/// use damulticast::{Network, TopicParams};
/// use da_core::ProcessId;
/// use da_simnet::{Engine, SimConfig};
///
/// // The paper's topology: S_T0 = 10, S_T1 = 100, S_T2 = 1000.
/// let net = Network::linear(&[10, 100, 1000], TopicParams::default(), 42)
///     .expect("valid topology");
/// let first_leaf = net.groups()[2].members[0];
/// let mut engine = Engine::new(SimConfig::default().with_seed(42), net.into_processes());
/// engine.process_mut(first_leaf).publish("evt");
/// engine.run_until_quiescent(64);
/// ```
#[derive(Debug)]
pub struct Network {
    hierarchy: Arc<TopicHierarchy>,
    groups: Vec<GroupSpec>,
    processes: Vec<DaProcess>,
}

/// Same-group contacts a dynamic process joins through.
const JOIN_CONTACTS: usize = 3;
/// Least neighbourhood size of the bootstrap overlay.
const OVERLAY_DEGREE: usize = 4;

/// The linear chain `T0 ← T1 ← …` with `group_sizes[i] = S_Ti` processes
/// in `Ti`'s group, ids dense and allocated top-down.
fn linear_groups(group_sizes: &[usize]) -> Result<(TopicHierarchy, Vec<GroupSpec>), DaError> {
    if group_sizes.is_empty() || group_sizes.contains(&0) {
        return Err(DaError::InvalidParameter {
            reason: "group sizes must be non-empty and positive".to_owned(),
        });
    }
    let (hierarchy, ids) = TopicHierarchy::linear_chain(group_sizes.len());
    let members = da_membership::static_init::assign_group_members(group_sizes);
    let groups = ids
        .into_iter()
        .zip(members)
        .map(|(topic, members)| GroupSpec { topic, members })
        .collect();
    Ok((hierarchy, groups))
}

impl Network {
    /// Builds a static network over a **linear** topic chain
    /// `T0 ← T1 ← …` where `group_sizes[i] = S_Ti` (the paper's Sec. VI-A
    /// assumption and Sec. VII-A setting). Process ids are dense,
    /// allocated top-down.
    ///
    /// # Errors
    ///
    /// Returns [`DaError::InvalidParameter`] when `group_sizes` is empty,
    /// contains a zero, or `params` fails validation.
    pub fn linear(group_sizes: &[usize], params: TopicParams, seed: u64) -> Result<Self, DaError> {
        let (hierarchy, groups) = linear_groups(group_sizes)?;
        Network::from_groups(Arc::new(hierarchy), groups, params, seed)
    }

    /// Builds a static network from explicit groups over an arbitrary
    /// hierarchy. Groups may be empty (their subscribers link past them to
    /// the nearest non-empty ancestor). A topic with several direct
    /// supertopics gets one supertable for each.
    ///
    /// # Errors
    ///
    /// Returns [`DaError::InvalidParameter`] on parameter-validation
    /// failure, and [`DaError::EmptyGroup`] when the total population is
    /// empty.
    ///
    /// ```
    /// use damulticast::{GroupSpec, Network, TopicParams};
    /// use da_core::ProcessId;
    /// use da_simnet::{Engine, SimConfig};
    /// use da_topics::TopicHierarchy;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // Multiple inheritance: skiing is sport, and Swiss.
    /// let mut h = TopicHierarchy::new();
    /// let swiss = h.insert(".swiss")?;
    /// let ski = h.insert(".sport.ski")?;
    /// h.add_supertopic(ski, swiss)?;
    /// let sport = h.parent(ski).unwrap();
    /// let group = |topic, pids: std::ops::Range<u32>| GroupSpec {
    ///     topic,
    ///     members: pids.map(ProcessId).collect(),
    /// };
    /// let groups = vec![group(sport, 0..5), group(swiss, 5..10), group(ski, 10..20)];
    /// let params = TopicParams::paper_default().with_g(30.0).with_a(3.0);
    /// let net = Network::from_groups(Arc::new(h), groups, params, 7)?;
    /// let mut engine = Engine::new(SimConfig::default().with_seed(7), net.into_processes());
    /// let id = engine.process_mut(ProcessId(12)).publish("slalom");
    /// engine.run_until_quiescent(64);
    /// // The event climbed both inclusion edges: members of `.sport` and of
    /// // `.swiss` delivered it.
    /// let reached = |pids: std::ops::Range<u32>| {
    ///     pids.map(ProcessId).any(|pid| engine.process(pid).has_delivered(id))
    /// };
    /// assert!(reached(0..5) && reached(5..10));
    /// # Ok(()) }
    /// ```
    pub fn from_groups(
        hierarchy: Arc<TopicHierarchy>,
        groups: Vec<GroupSpec>,
        params: TopicParams,
        seed: u64,
    ) -> Result<Self, DaError> {
        params.validate()?;
        if groups.iter().all(|g| g.members.is_empty()) {
            return Err(DaError::EmptyGroup {
                topic: ".".to_owned(),
            });
        }
        for g in &groups {
            hierarchy
                .check(g.topic)
                .map_err(|_| DaError::UnknownTopic {
                    id: g.topic.index() as u32,
                })?;
        }
        let by_topic: HashMap<TopicId, &GroupSpec> = groups.iter().map(|g| (g.topic, g)).collect();
        let mut rng = rng_from_seed(derive_seed(seed, 0x57A7));
        // Sized once. Grown by doubling, 1,110 processes end in a 1.3 MB
        // block, the largest a run ever frees, and the allocator may then
        // map and unmap it on every build (170 page faults each).
        let population = groups.iter().map(|g| g.members.len()).sum();
        let mut processes: Vec<DaProcess> = Vec::with_capacity(population);

        for group in &groups {
            if group.members.is_empty() {
                continue;
            }
            let shared = Arc::new(Group::new(
                group.topic,
                Arc::clone(&hierarchy),
                params,
                group.members.len(),
            ));
            let topic_tables = static_topic_tables(&group.members, params.b, &mut rng)?;

            // One supertable per direct supertopic `p`, drawn from the
            // nearest non-empty group among `p` and its ancestors.
            let populated = |t: &TopicId| by_topic.get(t).is_some_and(|g| !g.members.is_empty());
            let mut super_tables = Vec::new();
            for &parent in hierarchy.parents(group.topic) {
                let anchor = std::iter::once(parent)
                    .chain(hierarchy.ancestors(parent))
                    .find(populated);
                let Some(anc) = anchor else {
                    super_tables.push(None);
                    continue;
                };
                let supergroup = &by_topic[&anc].members;
                let tables = static_super_tables(&group.members, supergroup, params.z, &mut rng)?;
                super_tables.push(Some((anc, tables)));
            }

            for (at, (&pid, table)) in group.members.iter().zip(topic_tables).enumerate() {
                let supers = super_tables
                    .iter()
                    .map(|drawn| match drawn {
                        Some((anc, tables)) => tables[at]
                            .iter()
                            .map(|&p| SuperEntry {
                                pid: p,
                                topic: *anc,
                            })
                            .collect(),
                        None => Vec::new(),
                    })
                    .collect();
                processes.push(DaProcess::static_member(
                    pid,
                    Arc::clone(&shared),
                    table,
                    supers,
                ));
            }
        }

        // Engine addresses processes by dense index; sort and verify.
        processes.sort_by_key(DaProcess::id);
        for (i, pid) in processes.iter().map(DaProcess::id).enumerate() {
            if pid.index() != i {
                return Err(DaError::InvalidParameter {
                    reason: format!("process ids must be dense 0..n; found {pid} at position {i}"),
                });
            }
        }
        Ok(Network {
            hierarchy,
            groups,
            processes,
        })
    }

    /// Builds a dynamic network over a linear chain, handing each process
    /// three random same-group contacts and a shared random overlay of
    /// degree four. Processes bootstrap their own supertables through the
    /// overlay and keep them fresh at runtime.
    ///
    /// # Errors
    ///
    /// Returns [`DaError::InvalidParameter`] for empty/zero topologies or
    /// invalid parameters.
    pub fn dynamic_linear(
        group_sizes: &[usize],
        params: TopicParams,
        seed: u64,
    ) -> Result<Self, DaError> {
        let (hierarchy, groups) = linear_groups(group_sizes)?;
        params.validate()?;
        let hierarchy = Arc::new(hierarchy);
        let population: usize = group_sizes.iter().sum();
        let overlay = Arc::new(Overlay::random(
            population,
            OVERLAY_DEGREE,
            derive_seed(seed, 0x07E8),
        )?);
        let mut rng = rng_from_seed(derive_seed(seed, 0xD1A7));
        let mut processes = Vec::with_capacity(population);
        let mut pool = Vec::new();
        for group in &groups {
            let shared = Arc::new(Group::new(
                group.topic,
                Arc::clone(&hierarchy),
                params,
                group.members.len(),
            ));
            for (at, &pid) in group.members.iter().enumerate() {
                let contacts =
                    sample_others(&group.members, Some(at), JOIN_CONTACTS, &mut pool, &mut rng);
                processes.push(DaProcess::dynamic_member(
                    pid,
                    Arc::clone(&shared),
                    Arc::clone(&overlay),
                    contacts,
                ));
            }
        }
        processes.sort_by_key(DaProcess::id);
        Ok(Network {
            hierarchy,
            groups,
            processes,
        })
    }

    /// The topic hierarchy backing the network.
    #[must_use]
    pub fn hierarchy(&self) -> &Arc<TopicHierarchy> {
        &self.hierarchy
    }

    /// The group specifications, in construction order.
    #[must_use]
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// Consumes the network, yielding the processes for
    /// `da_simnet::Engine::new`.
    #[must_use]
    pub fn into_processes(self) -> Vec<DaProcess> {
        self.processes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::tables::SuperTable;
    use da_core::{Family, Kind};
    use da_simnet::{Engine, SimConfig};

    #[test]
    fn linear_builder_respects_paper_topology() {
        let net = Network::linear(&[10, 100, 1000], TopicParams::default(), 1).unwrap();
        assert_eq!(net.groups().len(), 3);
        assert_eq!(net.groups()[0].members.len(), 10);
        assert_eq!(net.groups()[2].members.len(), 1000);
        assert_eq!(net.into_processes().len(), 1110);
    }

    #[test]
    fn empty_topology_rejected() {
        assert!(Network::linear(&[], TopicParams::default(), 1).is_err());
    }

    /// Both chain builders turn away a zero-size group, as their docs
    /// say; `from_groups` alone accepts empty groups.
    #[test]
    fn linear_builders_reject_a_zero_size_group() {
        let sizes = [10, 0, 100];
        assert!(matches!(
            Network::linear(&sizes, TopicParams::default(), 1),
            Err(DaError::InvalidParameter { .. })
        ));
        assert!(matches!(
            Network::dynamic_linear(&sizes, TopicParams::default(), 1),
            Err(DaError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        let params = TopicParams::paper_default().with_z(0);
        assert!(Network::linear(&[5, 5], params, 1).is_err());
    }

    #[test]
    fn tables_point_to_correct_groups() {
        let net = Network::linear(&[10, 100], TopicParams::default(), 2).unwrap();
        let groups = net.groups().to_vec();
        let procs = net.into_processes();
        for p in &procs {
            let my_group = groups
                .iter()
                .find(|g| g.topic == p.topic())
                .expect("every process belongs to a group");
            for peer in p.topic_table() {
                assert!(
                    my_group.members.contains(peer),
                    "topic table must stay within the group"
                );
            }
            for e in p.super_tables().iter().flat_map(SuperTable::entries) {
                assert!(
                    groups[0].members.contains(&e.pid),
                    "supertable must point into the ancestor group"
                );
                assert_eq!(e.topic, groups[0].topic);
            }
        }
    }

    #[test]
    fn root_group_has_empty_supertables() {
        let net = Network::linear(&[10, 20], TopicParams::default(), 3).unwrap();
        let procs = net.into_processes();
        for p in procs.iter().take(10) {
            assert!(p.super_tables().is_empty(), "root member has no supergroup");
        }
        for p in procs.iter().skip(10) {
            assert_eq!(p.super_tables().len(), 1, "one table for T0");
        }
    }

    #[test]
    fn empty_intermediate_group_bridged() {
        // T1's group is empty: T2 members must link directly to T0.
        let (h, ids) = TopicHierarchy::linear_chain(3);
        let h = Arc::new(h);
        let groups = vec![
            GroupSpec {
                topic: ids[0],
                members: (0..5).map(ProcessId).collect(),
            },
            GroupSpec {
                topic: ids[1],
                members: vec![],
            },
            GroupSpec {
                topic: ids[2],
                members: (5..15).map(ProcessId).collect(),
            },
        ];
        let net = Network::from_groups(Arc::clone(&h), groups, TopicParams::default(), 4).unwrap();
        let procs = net.into_processes();
        for p in procs.iter().skip(5) {
            assert_eq!(p.super_tables().len(), 1, "one table, for T1");
            assert!(!p.super_tables()[0].is_empty());
            for e in p.super_tables()[0].entries() {
                assert_eq!(e.topic, ids[0], "links skip the empty T1 group");
            }
        }
    }

    #[test]
    fn bridged_event_still_reaches_root() {
        let (h, ids) = TopicHierarchy::linear_chain(3);
        let h = Arc::new(h);
        let groups = vec![
            GroupSpec {
                topic: ids[0],
                members: (0..5).map(ProcessId).collect(),
            },
            GroupSpec {
                topic: ids[1],
                members: vec![],
            },
            GroupSpec {
                topic: ids[2],
                members: (5..15).map(ProcessId).collect(),
            },
        ];
        let net = Network::from_groups(h, groups, TopicParams::default(), 5).unwrap();
        let mut engine = Engine::new(SimConfig::default().with_seed(5), net.into_processes());
        let id = engine.process_mut(ProcessId(7)).publish("bridge me");
        engine.run_until_quiescent(64);
        for pid in 0..5 {
            assert!(
                engine.process(ProcessId(pid)).has_delivered(id),
                "root member {pid} missed the bridged event"
            );
        }
    }

    #[test]
    fn non_dense_pids_rejected() {
        let (h, ids) = TopicHierarchy::linear_chain(2);
        let groups = vec![
            GroupSpec {
                topic: ids[0],
                members: vec![ProcessId(0), ProcessId(2)], // gap at 1
            },
            GroupSpec {
                topic: ids[1],
                members: vec![ProcessId(5)],
            },
        ];
        assert!(Network::from_groups(Arc::new(h), groups, TopicParams::default(), 6).is_err());
    }

    /// A group's constants are one allocation its members point at, in
    /// both modes: one value per group, not one copy per process.
    #[test]
    fn every_member_of_a_group_shares_one_group_value() {
        let shares = |groups: &[GroupSpec], procs: &[DaProcess]| {
            for spec in groups {
                let first = procs[spec.members[0].index()].group();
                assert_eq!(first.topic, spec.topic);
                assert_eq!(first.size, spec.members.len());
                for pid in &spec.members {
                    assert!(Arc::ptr_eq(procs[pid.index()].group(), first), "{pid}");
                }
            }
            let firsts: Vec<&Arc<Group>> = groups
                .iter()
                .map(|spec| procs[spec.members[0].index()].group())
                .collect();
            assert!(!Arc::ptr_eq(firsts[0], firsts[1]), "one value per group");
        };
        let net = Network::linear(&[10, 100, 1000], TopicParams::default(), 1).unwrap();
        let groups = net.groups().to_vec();
        shares(&groups, &net.into_processes());
        let net = Network::dynamic_linear(&[5, 20], TopicParams::default(), 7).unwrap();
        let groups = net.groups().to_vec();
        shares(&groups, &net.into_processes());
    }

    #[test]
    fn dynamic_network_builds_and_floods_bootstrap() {
        let net = Network::dynamic_linear(&[5, 20], TopicParams::default(), 7).unwrap();
        let procs = net.into_processes();
        assert_eq!(procs.len(), 25);
        let mut engine = Engine::new(SimConfig::default().with_seed(7), procs);
        engine.run_rounds(40);
        // Every leaf process should have found at least one super contact.
        let linked = (5..25)
            .filter(|&i| !engine.process(ProcessId(i)).super_tables()[0].is_empty())
            .count();
        assert!(
            linked >= 18,
            "only {linked}/20 leaves bootstrapped a super link"
        );
    }

    #[test]
    fn dynamic_dissemination_end_to_end() {
        // At S = 20 the paper's g = 5 leaves a ≈2% chance that no process
        // elects itself for inter-group forwarding; raise g so the test is
        // statistically sound (the trade-off knob the paper describes).
        let params = TopicParams::paper_default().with_g(15.0).with_a(3.0);
        let net = Network::dynamic_linear(&[5, 20], params, 9).unwrap();
        let procs = net.into_processes();
        let mut engine = Engine::new(SimConfig::default().with_seed(9), procs);
        engine.run_rounds(30); // let membership + bootstrap settle
        let id = engine.process_mut(ProcessId(12)).publish("dynamic");
        engine.run_rounds(30);
        let leaf_got = (5..25)
            .filter(|&i| engine.process(ProcessId(i)).has_delivered(id))
            .count();
        let root_got = (0..5)
            .filter(|&i| engine.process(ProcessId(i)).has_delivered(id))
            .count();
        assert!(leaf_got >= 18, "leaf delivery {leaf_got}/20");
        assert!(root_got >= 1, "event failed to climb to the root group");
    }

    /// `.sport`, `.swiss` and `.sport.ski`, with `.swiss` a second direct
    /// supertopic of `.sport.ski`. Groups: 4 root fans (pids 0–3), 6 sport
    /// fans (4–9), 6 swiss fans (10–15), 12 ski fans (16–27). The small
    /// groups pin the trade-off knobs high so single events cross every
    /// edge deterministically enough to assert on.
    fn diamond_network(seed: u64) -> (Network, [TopicId; 4]) {
        let mut h = TopicHierarchy::from_paths([".sport.ski", ".swiss"]).unwrap();
        let [sport, swiss, ski] = [".sport", ".swiss", ".sport.ski"].map(|p| h.resolve(p).unwrap());
        h.add_supertopic(ski, swiss).unwrap();
        let topics = [h.root(), sport, swiss, ski];
        let groups = topics
            .iter()
            .zip([0..4, 4..10, 10..16, 16..28])
            .map(|(&topic, pids)| GroupSpec {
                topic,
                members: pids.map(ProcessId).collect(),
            })
            .collect();
        let params = TopicParams::paper_default().with_g(30.0).with_a(3.0);
        let net = Network::from_groups(Arc::new(h), groups, params, seed).unwrap();
        (net, topics)
    }

    /// How many of `pids` delivered `id`.
    fn delivered(engine: &Engine<DaProcess>, pids: std::ops::Range<u32>, id: EventId) -> usize {
        pids.filter(|&i| engine.process(ProcessId(i)).has_delivered(id))
            .count()
    }

    #[test]
    fn one_table_per_direct_supertopic() {
        let (net, [root, sport, swiss, _]) = diamond_network(1);
        let procs = net.into_processes();
        let tagged = |p: &DaProcess| -> Vec<Vec<TopicId>> {
            let tags = |t: &SuperTable| t.entries().iter().map(|e| e.topic).collect();
            p.super_tables().iter().map(tags).collect()
        };
        assert!(procs[0].super_tables().is_empty(), "the root has none");
        assert_eq!(tagged(&procs[5]), [vec![root; 3]]);
        assert_eq!(tagged(&procs[11]), [vec![root; 3]]);
        assert_eq!(tagged(&procs[20]), [vec![sport; 3], vec![swiss; 3]]);
    }

    #[test]
    fn each_table_draws_from_its_own_supertopic() {
        let (net, _) = diamond_network(2);
        for p in net.into_processes().iter().skip(16) {
            let [to_sport, to_swiss] = p.super_tables() else {
                panic!("{} has {} tables", p.id(), p.super_tables().len());
            };
            assert!(to_sport
                .entries()
                .iter()
                .all(|e| (4..10).contains(&e.pid.0)));
            assert!(to_swiss
                .entries()
                .iter()
                .all(|e| (10..16).contains(&e.pid.0)));
        }
    }

    #[test]
    fn memory_is_tables_times_z_not_hierarchy_size() {
        // A child of ten supertopics, each with a five-member group.
        let mut h = TopicHierarchy::new();
        let parents: Vec<TopicId> = (0..10)
            .map(|i| h.insert(&format!(".p{i}")).unwrap())
            .collect();
        let child = h.insert(".p0.child").unwrap();
        for &p in &parents[1..] {
            h.add_supertopic(child, p).unwrap();
        }
        let mut groups: Vec<GroupSpec> = (0u32..10)
            .map(|i| GroupSpec {
                topic: parents[i as usize],
                members: (5 * i..5 * i + 5).map(ProcessId).collect(),
            })
            .collect();
        groups.push(GroupSpec {
            topic: child,
            members: (50..54).map(ProcessId).collect(),
        });
        let net = Network::from_groups(Arc::new(h), groups, TopicParams::default(), 3).unwrap();
        for p in net.into_processes().iter().skip(50) {
            // 10 tables × z = 3, though each supergroup offers 5.
            assert_eq!(p.super_tables().len(), 10);
            assert_eq!(p.memory_entries(), p.topic_table().len() + 30);
        }
    }

    #[test]
    fn ski_event_climbs_both_edges() {
        let (net, _) = diamond_network(1);
        let mut engine = Engine::new(SimConfig::default().with_seed(1), net.into_processes());
        let id = engine.process_mut(ProcessId(20)).publish("slalom gold");
        engine.run_until_quiescent(64);
        assert_eq!(delivered(&engine, 16..28, id), 12, "all ski fans");
        assert!(
            delivered(&engine, 4..10, id) >= 5,
            "sport fans via the sport edge"
        );
        assert!(
            delivered(&engine, 10..16, id) >= 5,
            "swiss fans via the swiss edge"
        );
        assert!(
            delivered(&engine, 0..4, id) >= 3,
            "root fans via either path"
        );
        assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);
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
            assert!(engine.process(ProcessId(i)).delivered().len() <= 1);
        }
        assert!(
            engine
                .tally()
                .get(Family::Da, Kind::Duplicate, TopicId::ROOT.index())
                > 0,
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
        assert_eq!(delivered(&engine, 10..16, id), 0, "swiss fans");
        assert_eq!(delivered(&engine, 16..28, id), 0, "ski fans");
        assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);
    }

    #[test]
    fn memory_is_edge_count_times_z() {
        let (net, _) = diamond_network(4);
        let procs = net.into_processes();
        // Ski fans have two edges → up to 2z super entries; sport/swiss
        // fans one edge → up to z; root fans none.
        let supers = |i: usize| procs[i].memory_entries() - procs[i].topic_table().len();
        assert!(supers(20) <= 2 * 3);
        assert!(supers(20) > 3);
        assert!(supers(5) <= 3);
        assert_eq!(supers(0), 0);
    }

    #[test]
    fn empty_parent_group_bridged_upward() {
        // `.a.b` also under `.c`; nobody subscribes to `.a`, so b's table
        // for `.a` links to the root group and its table for `.c` to c's.
        let mut h = TopicHierarchy::from_paths([".a.b", ".c"]).unwrap();
        let [a, b, c] = [".a", ".a.b", ".c"].map(|p| h.resolve(p).unwrap());
        h.add_supertopic(b, c).unwrap();
        let groups = vec![
            GroupSpec {
                topic: h.root(),
                members: (0..4).map(ProcessId).collect(),
            },
            GroupSpec {
                topic: a,
                members: vec![],
            },
            GroupSpec {
                topic: c,
                members: (4..8).map(ProcessId).collect(),
            },
            GroupSpec {
                topic: b,
                members: (8..16).map(ProcessId).collect(),
            },
        ];
        let root = h.root();
        let params = TopicParams::paper_default().with_g(30.0).with_a(3.0);
        let net = Network::from_groups(Arc::new(h), groups, params, 5).unwrap();
        let procs = net.into_processes();
        for p in procs.iter().skip(8) {
            let [to_a, to_c] = p.super_tables() else {
                panic!("{} has {} tables", p.id(), p.super_tables().len());
            };
            assert!(!to_a.is_empty(), "bridged links exist");
            assert!(to_a.entries().iter().all(|e| e.topic == root));
            assert!(to_c.entries().iter().all(|e| e.topic == c));
        }
        let mut engine = Engine::new(SimConfig::default().with_seed(5), procs);
        let id = engine.process_mut(ProcessId(10)).publish("up");
        engine.run_until_quiescent(64);
        assert!(
            delivered(&engine, 0..4, id) >= 3,
            "bridge must carry the event to the root group"
        );
        assert!(delivered(&engine, 4..8, id) >= 3, "and the c edge to c's");
    }

    #[test]
    fn build_validation() {
        let (h, topics) = {
            let (net, topics) = diamond_network(6);
            (Arc::clone(net.hierarchy()), topics)
        };
        let groups = |pids: &[&[u32]]| -> Vec<GroupSpec> {
            topics
                .iter()
                .zip(pids)
                .map(|(&topic, pids)| GroupSpec {
                    topic,
                    members: pids.iter().copied().map(ProcessId).collect(),
                })
                .collect()
        };
        let build = |groups, params| Network::from_groups(Arc::clone(&h), groups, params, 1);
        assert!(matches!(
            build(groups(&[&[], &[], &[], &[]]), TopicParams::default()),
            Err(DaError::EmptyGroup { .. })
        ));
        // Not dense: 2 is missing.
        assert!(build(groups(&[&[0, 1], &[3]]), TopicParams::default()).is_err());
        // A NaN election weight would pass `gen_bool` a NaN probability
        // on the first publication.
        let nan = TopicParams::paper_default().with_g(f64::NAN);
        assert!(matches!(
            build(groups(&[&[0, 1]]), nan),
            Err(DaError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn topic_table_helper_access() {
        let (net, [_, sport, swiss, ski]) = diamond_network(6);
        let procs = net.into_processes();
        assert_eq!(procs[20].topic(), ski);
        assert_eq!(procs[20].id(), ProcessId(20));
        assert!(procs[20].is_interested_in(ski));
        assert!(!procs[20].is_interested_in(sport));
        assert!(procs[11].is_interested_in(ski), "swiss fans want ski");
        assert!(!procs[11].is_interested_in(sport));
        assert!(procs[0].is_interested_in(swiss), "root wants everything");
    }
}
