//! Baseline (a): gossip-based **broadcast** (Sec. VI-E of the paper).
//!
//! "Each time an event must be sent, it is broadcast in the entire
//! system." One flat gossip group spans all `n` processes regardless of
//! interests; membership tables have size `(b+1)·ln(n)` and the fanout is
//! `ln(n) + c`. Every process participates in relaying *every* event, so
//! processes constantly receive events of topics they never subscribed to
//! — the parasite messages daMulticast eliminates.

use crate::common::{gossip_targets, DeliveryLog, InterestMap};
use da_core::{derive_seed, rng_from_seed, Exec, ExecProtocol, LabelId, ProcessId, WireSize};
use da_membership::{static_init::static_topic_tables, FanoutRule};
use damulticast::{DaError, Event, EventId};
use std::sync::LazyLock;

static SENT: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("bc.sent"));
static DELIVERED: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("bc.delivered"));
static PARASITE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("bc.parasite"));
static DUPLICATE: LazyLock<LabelId> = LazyLock::new(|| LabelId::intern("bc.duplicate"));

/// Wire message of the broadcast baseline: just the event.
#[derive(Debug, Clone)]
pub struct BcMsg(pub Event);

impl WireSize for BcMsg {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

/// One process of the gossip-broadcast baseline.
#[derive(Debug, Clone)]
pub struct BroadcastProcess {
    me: ProcessId,
    interests: InterestMap,
    table: Vec<ProcessId>,
    fanout: usize,
    log: DeliveryLog,
    pending: Vec<Event>,
    next_sequence: u64,
}

impl BroadcastProcess {
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

    /// Delivery/parasite log of this process.
    #[must_use]
    pub fn log(&self) -> &DeliveryLog {
        &self.log
    }

    /// Membership entries held (one global table).
    #[must_use]
    pub fn memory_entries(&self) -> usize {
        self.table.len()
    }

    fn relay<X: Exec<Msg = BcMsg>>(&mut self, event: &Event, ctx: &mut X) {
        let targets = gossip_targets(&self.table, self.fanout, ctx.rng());
        for t in targets {
            ctx.bump_id(*SENT);
            ctx.send(t, BcMsg(event.clone()));
        }
    }
}

impl ExecProtocol for BroadcastProcess {
    type Msg = BcMsg;

    fn on_message<X: Exec<Msg = BcMsg>>(&mut self, _from: ProcessId, msg: BcMsg, ctx: &mut X) {
        let interested = self.interests.wants(self.me, msg.0.topic());
        if self.log.on_receive(&msg.0, interested) {
            if interested {
                ctx.bump_id(*DELIVERED);
            } else {
                ctx.bump_id(*PARASITE);
            }
            // Broadcast relies on *everyone* relaying, parasites included.
            let event = msg.0;
            self.relay(&event, ctx);
        } else {
            ctx.bump_id(*DUPLICATE);
        }
    }

    fn on_round<X: Exec<Msg = BcMsg>>(&mut self, _round: u64, ctx: &mut X) {
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
) -> Result<Vec<BroadcastProcess>, DaError> {
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
    Ok(everyone
        .iter()
        .map(|&me| BroadcastProcess {
            me,
            interests: interests.clone(),
            table: tables[&me].clone(),
            fanout,
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

    fn network() -> Vec<BroadcastProcess> {
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
                engine.process(ProcessId(i)).log().has_delivered(id),
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
        let parasites: u64 = engine.processes().map(|(_, p)| p.log().parasites()).sum();
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
            let mut ids: Vec<EventId> = p.log().delivered().iter().map(|e| e.id()).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(
                ids.len(),
                p.log().delivered().len(),
                "{pid} double-delivered"
            );
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
