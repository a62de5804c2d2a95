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

use crate::common::{gossip_targets, DeliveryLog, InterestMap};
use da_core::{derive_seed, rng_from_seed, Exec, ExecProtocol, LabelId, ProcessId, WireSize};
use da_membership::hierarchical::{static_hierarchical_tables, HierarchicalLayout};
use da_membership::FanoutRule;
use damulticast::{DaError, Event, EventId};
use std::sync::LazyLock;

static SENT_INTRA: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("hc.sent_intra"));
static SENT_INTER: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("hc.sent_inter"));
static DELIVERED: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("hc.delivered"));
static PARASITE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("hc.parasite"));
static DUPLICATE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("hc.duplicate"));

/// Wire message of the hierarchical baseline: just the event.
#[derive(Debug, Clone)]
pub struct HcMsg(pub Event);

impl WireSize for HcMsg {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

/// One process of the hierarchical gossip-broadcast baseline.
#[derive(Debug, Clone)]
pub struct HierarchicalProcess {
    me: ProcessId,
    interests: InterestMap,
    intra: Vec<ProcessId>,
    inter: Vec<ProcessId>,
    fanout_intra: usize,
    fanout_inter: usize,
    log: DeliveryLog,
    pending: Vec<Event>,
    next_sequence: u64,
}

impl HierarchicalProcess {
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

    /// Total membership entries (intra + inter views, Sec. VI-E.2 (c)).
    #[must_use]
    pub fn memory_entries(&self) -> usize {
        self.intra.len() + self.inter.len()
    }

    fn relay<X: Exec<Msg = HcMsg>>(&mut self, event: &Event, ctx: &mut X) {
        for t in gossip_targets(&self.intra, self.fanout_intra, ctx.rng()) {
            ctx.bump_id(*SENT_INTRA);
            ctx.send(t, HcMsg(event.clone()));
        }
        for t in gossip_targets(&self.inter, self.fanout_inter, ctx.rng()) {
            ctx.bump_id(*SENT_INTER);
            ctx.send(t, HcMsg(event.clone()));
        }
    }
}

impl ExecProtocol for HierarchicalProcess {
    type Msg = HcMsg;

    fn on_message<X: Exec<Msg = HcMsg>>(&mut self, _from: ProcessId, msg: HcMsg, ctx: &mut X) {
        let interested = self.interests.wants(self.me, msg.0.topic());
        if self.log.on_receive(&msg.0, interested) {
            if interested {
                ctx.bump_id(*DELIVERED);
            } else {
                ctx.bump_id(*PARASITE);
            }
            let event = msg.0;
            self.relay(&event, ctx);
        } else {
            ctx.bump_id(*DUPLICATE);
        }
    }

    fn on_round<X: Exec<Msg = HcMsg>>(&mut self, _round: u64, ctx: &mut X) {
        let pending = std::mem::take(&mut self.pending);
        for event in pending {
            let interested = self.interests.wants(self.me, event.topic());
            if self.log.on_receive(&event, interested) && interested {
                ctx.bump_id(*DELIVERED);
            }
            self.relay(&event, ctx);
        }
    }
}

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
) -> Result<Vec<HierarchicalProcess>, DaError> {
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
    let m = layout.group_size();
    let f_intra = fanout_intra.fanout(m);
    let f_inter = fanout_inter.fanout(n_groups);
    Ok((0..n)
        .map(ProcessId::from_index)
        .map(|me| HierarchicalProcess {
            me,
            interests: interests.clone(),
            intra: tables.intra[&me].clone(),
            inter: tables.inter[&me].clone(),
            fanout_intra: f_intra,
            fanout_inter: f_inter,
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

    fn network() -> Vec<HierarchicalProcess> {
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
                engine.process(ProcessId(i)).log().has_delivered(id),
                "process {i} missed it"
            );
        }
    }

    #[test]
    fn interest_oblivious_grouping_breeds_parasites() {
        let mut engine = Engine::new(SimConfig::default().with_seed(3), network());
        engine.process_mut(ProcessId(0)).publish("root-only");
        engine.run_until_quiescent(60);
        let parasites: u64 = engine.processes().map(|(_, p)| p.log().parasites()).sum();
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
