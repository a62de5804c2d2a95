//! Baseline (b): gossip-based **multicast** (Sec. IV-A pattern 1,
//! Sec. VI-E of the paper).
//!
//! One gossip group exists *per topic*; a subscriber of `Ta` joins the
//! group of `Ta` **and of every subtopic of `Ta`** (the dashed-arrow
//! pattern of Fig. 1). A published event of topic `Tb` is disseminated in
//! the group of `Tb` only — whose members are exactly the processes
//! interested in `Tb`, so there are no parasites and no inter-group links.
//! The price is memory: a subscriber holds one `(b+1)·ln(S')` table per
//! joined group, scoped to that group's topic, and must track subtopic
//! creation, which is what daMulticast's two-table design eliminates.

use crate::common::InterestMap;
use crate::gossip::{GossipProcess, GossipTable, Labels};
use da_core::{derive_seed, rng_from_seed, LabelId, ProcessId};
use da_membership::{static_init::static_topic_tables, FanoutRule};
use damulticast::DaError;

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
) -> Result<Vec<GossipProcess>, DaError> {
    let n = interests.population();
    if n == 0 {
        return Err(DaError::EmptyGroup {
            topic: ".".to_owned(),
        });
    }
    let mut rng = rng_from_seed(derive_seed(seed, 0x4C));
    let sent = LabelId::intern("mc.sent");
    let mut per_process: Vec<Vec<GossipTable>> = vec![Vec::new(); n];

    for topic in interests.hierarchy().iter() {
        let group = interests.audience(topic);
        if group.is_empty() {
            continue;
        }
        let tables =
            static_topic_tables(&group, b, &mut rng).map_err(|e| DaError::InvalidParameter {
                reason: e.to_string(),
            })?;
        let fanout = fanout.fanout(group.len());
        for (member, view) in group.into_iter().zip(tables) {
            per_process[member.index()].push(GossipTable {
                group: Some(topic),
                view,
                fanout,
                sent,
            });
        }
    }

    let labels = Labels::new("mc");
    Ok(per_process
        .into_iter()
        .enumerate()
        .map(|(i, tables)| GossipProcess::new(ProcessId::from_index(i), interests, tables, labels))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_simnet::{Engine, SimConfig};

    fn network() -> Vec<GossipProcess> {
        let interests = InterestMap::linear(&[2, 3, 10]);
        build_multicast_network(&interests, 3.0, FanoutRule::LnPlusC { c: 5.0 }, 1).unwrap()
    }

    #[test]
    fn subscribers_join_own_and_subtopic_groups() {
        let procs = network();
        // Root subscribers join 3 groups (root + 2 descendants), mid 2,
        // leaf 1 — the memory overhead the paper criticises.
        assert_eq!(procs[0].tables().len(), 3);
        assert_eq!(procs[2].tables().len(), 2);
        assert_eq!(procs[14].tables().len(), 1);
        assert!(procs[0].memory_entries() > procs[14].memory_entries());
    }

    #[test]
    fn leaf_event_reaches_all_interested() {
        let mut engine = Engine::new(SimConfig::default().with_seed(2), network());
        let id = engine.process_mut(ProcessId(14)).publish("leaf");
        engine.run_until_quiescent(50);
        for i in 0..15 {
            assert!(
                engine.process(ProcessId(i)).has_delivered(id),
                "process {i} interested in T2 events but missed it"
            );
        }
    }

    #[test]
    fn root_event_stays_in_root_group() {
        let mut engine = Engine::new(SimConfig::default().with_seed(3), network());
        let id = engine.process_mut(ProcessId(0)).publish("root-only");
        engine.run_until_quiescent(50);
        assert!(engine.process(ProcessId(1)).has_delivered(id));
        for i in 2..15 {
            assert!(
                !engine.process(ProcessId(i)).has_delivered(id),
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
        let total: u64 = engine.processes().map(|(_, p)| p.parasite_count()).sum();
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
