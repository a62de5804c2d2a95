//! Baseline (a): gossip-based **broadcast** (Sec. VI-E of the paper).
//!
//! "Each time an event must be sent, it is broadcast in the entire
//! system." One flat gossip group spans all `n` processes regardless of
//! interests; membership tables have size `(b+1)·ln(n)` and the fanout is
//! `ln(n) + c`. Every process participates in relaying *every* event, so
//! processes constantly receive events of topics they never subscribed to
//! — the parasite messages daMulticast eliminates. Each
//! [`GossipProcess`] holds one unscoped table.

use crate::common::InterestMap;
use crate::gossip::{GossipProcess, GossipTable, Labels};
use da_core::{derive_seed, rng_from_seed, LabelId, ProcessId};
use da_membership::{static_init::static_topic_tables, FanoutRule};
use damulticast::DaError;

/// Builds the broadcast population: one global static gossip table per
/// process, drawn with the same `(b+1)·ln(n)` rule as daMulticast's topic
/// tables (fairness: "all approaches use the same underlying membership
/// algorithm", Sec. VI-E).
///
/// # Errors
///
/// Returns [`DaError::EmptyGroup`] for an empty population.
pub fn build_broadcast_network(
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
    let everyone: Vec<ProcessId> = (0..n).map(ProcessId::from_index).collect();
    let mut rng = rng_from_seed(derive_seed(seed, 0xBC));
    let tables =
        static_topic_tables(&everyone, b, &mut rng).map_err(|e| DaError::InvalidParameter {
            reason: e.to_string(),
        })?;
    let fanout = fanout.fanout(n);
    let (labels, sent) = (Labels::new("bc"), LabelId::intern("bc.sent"));
    Ok(everyone
        .into_iter()
        .zip(tables)
        .map(|(me, view)| {
            let table = GossipTable {
                group: None,
                view,
                fanout,
                sent,
            };
            GossipProcess::new(me, interests, vec![table], labels)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_simnet::{Engine, SimConfig};
    use damulticast::EventId;

    fn network() -> Vec<GossipProcess> {
        // 2 root subscribers, 3 mid, 10 leaf.
        let interests = InterestMap::linear(&[2, 3, 10]);
        build_broadcast_network(&interests, 3.0, FanoutRule::LnPlusC { c: 5.0 }, 1).unwrap()
    }

    #[test]
    fn broadcast_reaches_every_interested_process() {
        let mut engine = Engine::new(SimConfig::default().with_seed(2), network());
        let id = engine.process_mut(ProcessId(14)).publish("leaf event");
        engine.run_until_quiescent(50);
        // Audience of a leaf event: everyone (leaf + mid + root).
        for i in 0..15 {
            assert!(
                engine.process(ProcessId(i)).has_delivered(id),
                "process {i} missed the broadcast"
            );
        }
    }

    #[test]
    fn broadcast_produces_parasites() {
        let mut engine = Engine::new(SimConfig::default().with_seed(3), network());
        // A ROOT-topic event interests only the 2 root subscribers; the
        // other 13 processes still receive and relay it.
        engine.process_mut(ProcessId(0)).publish("root-only news");
        engine.run_until_quiescent(50);
        let parasites: u64 = engine.processes().map(|(_, p)| p.parasite_count()).sum();
        assert!(
            parasites >= 10,
            "expected widespread parasites, got {parasites}"
        );
        assert_eq!(engine.counters().get("bc.parasite"), parasites);
    }

    #[test]
    fn parasites_still_relay() {
        let mut engine = Engine::new(SimConfig::default().with_seed(4), network());
        engine.process_mut(ProcessId(0)).publish("root-only");
        engine.run_until_quiescent(50);
        // Total sends far exceed what 2 interested processes could emit.
        let sent = engine.counters().get("bc.sent");
        assert!(sent > 40, "parasites must keep gossiping (sent {sent})");
    }

    #[test]
    fn no_double_delivery() {
        let mut engine = Engine::new(SimConfig::default().with_seed(5), network());
        engine.process_mut(ProcessId(14)).publish("x");
        engine.process_mut(ProcessId(14)).publish("y");
        engine.run_until_quiescent(50);
        for (pid, p) in engine.processes() {
            let mut ids: Vec<EventId> = p.delivered().iter().map(|e| e.id()).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), p.delivered().len(), "{pid} double-delivered");
        }
    }

    #[test]
    fn memory_is_global_table() {
        let procs = network();
        // (3+1)·ln(15) = 10.8 → 11 entries.
        for p in &procs {
            assert_eq!(p.memory_entries(), 11);
        }
    }

    #[test]
    fn empty_population_rejected() {
        let interests = InterestMap::new(
            std::sync::Arc::new(da_topics::TopicHierarchy::new()),
            vec![],
        );
        assert!(build_broadcast_network(&interests, 3.0, FanoutRule::default(), 1).is_err());
    }
}
