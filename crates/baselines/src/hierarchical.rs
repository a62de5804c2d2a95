//! Baseline (c): **hierarchical gossip-based broadcast** (Sec. VI-E of the
//! paper; the two-level technique of Kermarrec–Massoulié–Ganesh \[10\]).
//!
//! The population is split into `N` small groups *independent of
//! interests*. Each process keeps an intra-group view (size
//! `(b+1)·ln(m)`) and an inter-group view over foreign processes (size
//! `(b+1)·ln(N)`). An infected process gossips an event to `ln(m) + c1`
//! group-mates and `ln(N) + c2` foreign contacts, giving the Appendix's
//! `N·m(ln N + ln m + c1 + c2)` message count and `e^{-N e^{-c1} -
//! e^{-c2}}` reliability. Interests play no role, so — like flat
//! broadcast — every process receives every event: parasites galore.
//! Each [`GossipProcess`] holds two unscoped tables, intra then inter.

use crate::common::InterestMap;
use crate::gossip::{GossipProcess, GossipTable, Labels};
use da_core::{derive_seed, rng_from_seed, LabelId, ProcessId};
use da_membership::hierarchical::{static_hierarchical_tables, HierarchicalLayout};
use da_membership::FanoutRule;
use damulticast::DaError;

/// Builds the hierarchical population: `n_groups` interest-oblivious
/// groups with static two-level views, intra fanout from `fanout_intra`
/// evaluated at the group size `m`, inter fanout from `fanout_inter`
/// evaluated at `N`.
///
/// # Errors
///
/// Returns [`DaError::InvalidParameter`] when the partition fails (zero
/// groups or more groups than processes).
pub fn build_hierarchical_network(
    interests: &InterestMap,
    n_groups: usize,
    b: f64,
    fanout_intra: FanoutRule,
    fanout_inter: FanoutRule,
    seed: u64,
) -> Result<Vec<GossipProcess>, DaError> {
    let n = interests.population();
    let mut rng = rng_from_seed(derive_seed(seed, 0x8C));
    let layout = HierarchicalLayout::partition(n, n_groups, &mut rng).map_err(|e| {
        DaError::InvalidParameter {
            reason: e.to_string(),
        }
    })?;
    let tables = static_hierarchical_tables(&layout, b, &mut rng).map_err(|e| {
        DaError::InvalidParameter {
            reason: e.to_string(),
        }
    })?;
    let f_intra = fanout_intra.fanout(layout.group_size());
    let f_inter = fanout_inter.fanout(n_groups);
    let labels = Labels::new("hc");
    let (sent_intra, sent_inter) = (
        LabelId::intern("hc.sent_intra"),
        LabelId::intern("hc.sent_inter"),
    );
    Ok((0..n)
        .map(ProcessId::from_index)
        .zip(tables.intra.into_iter().zip(tables.inter))
        .map(|(me, (intra, inter))| {
            let intra = GossipTable {
                group: None,
                view: intra,
                fanout: f_intra,
                sent: sent_intra,
            };
            let inter = GossipTable {
                group: None,
                view: inter,
                fanout: f_inter,
                sent: sent_inter,
            };
            GossipProcess::new(me, interests, vec![intra, inter], labels)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_simnet::{Engine, SimConfig};

    fn network() -> Vec<GossipProcess> {
        let interests = InterestMap::linear(&[2, 3, 10]);
        build_hierarchical_network(
            &interests,
            3,
            3.0,
            FanoutRule::LnPlusC { c: 3.0 },
            FanoutRule::LnPlusC { c: 2.0 },
            1,
        )
        .unwrap()
    }

    #[test]
    fn event_reaches_every_interested_process() {
        let mut engine = Engine::new(SimConfig::default().with_seed(2), network());
        let id = engine.process_mut(ProcessId(14)).publish("leaf");
        engine.run_until_quiescent(60);
        for i in 0..15 {
            assert!(
                engine.process(ProcessId(i)).has_delivered(id),
                "process {i} missed it"
            );
        }
    }

    #[test]
    fn interest_oblivious_grouping_breeds_parasites() {
        let mut engine = Engine::new(SimConfig::default().with_seed(3), network());
        engine.process_mut(ProcessId(0)).publish("root-only");
        engine.run_until_quiescent(60);
        let parasites: u64 = engine.processes().map(|(_, p)| p.parasite_count()).sum();
        assert!(parasites >= 10, "got {parasites}");
    }

    #[test]
    fn both_levels_generate_traffic() {
        let mut engine = Engine::new(SimConfig::default().with_seed(4), network());
        engine.process_mut(ProcessId(7)).publish("x");
        engine.run_until_quiescent(60);
        assert!(engine.counters().get("hc.sent_intra") > 0);
        assert!(engine.counters().get("hc.sent_inter") > 0);
    }

    #[test]
    fn memory_is_two_views() {
        let procs = network();
        for p in &procs {
            // m = 5 → (3+1)·ln(5) = 6.4 → capped at 4; N = 3 → (3+1)·ln 3
            // = 4.4 → capped at... inter view samples processes, capped by
            // availability, not by N.
            assert!(p.memory_entries() > 0);
            assert!(p.memory_entries() <= 4 + 5);
        }
    }

    #[test]
    fn partition_errors_propagate() {
        let interests = InterestMap::linear(&[2, 3]);
        assert!(build_hierarchical_network(
            &interests,
            0,
            3.0,
            FanoutRule::default(),
            FanoutRule::default(),
            1
        )
        .is_err());
        assert!(build_hierarchical_network(
            &interests,
            50,
            3.0,
            FanoutRule::default(),
            FanoutRule::default(),
            1
        )
        .is_err());
    }
}
