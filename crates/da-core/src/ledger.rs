//! The typed envelope ledger both substrates fill, and the one place its
//! fields get the names the benchmark package still reads from the
//! counter registries (`sim.sent` on the simulator, `rt.sent` on the
//! pool): [`render`] writes them, [`protocol_labels`] leaves them out.

use crate::metrics::Counters;
use crate::trace::TraceVerdict;

/// Every envelope a substrate was handed, by what became of it, and the
/// churn transitions; a pool's is the sum of its workers'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvelopeLedger {
    /// Messages handed to the network, lost ones included (`Sent`).
    pub sent: u64,
    /// Their wire sizes.
    pub bytes_sent: u64,
    /// Envelopes handed to `on_message` (`Delivered`).
    pub delivered: u64,
    /// Sends the channel lost (`DroppedChannel`).
    pub dropped_channel: u64,
    /// Sends a partition cut severed (`DroppedPartitioned`).
    pub dropped_partitioned: u64,
    /// Envelopes due at a crashed process (`DroppedCrashed`).
    pub dropped_crashed: u64,
    /// Envelopes whose destination was observed failed (`DroppedObserved`).
    pub dropped_observed: u64,
    /// Pool only: envelopes a closed inbox refused (no verdict).
    pub dropped_closed: u64,
    /// Pool only: envelopes in flight when the pool stopped.
    pub dropped_shutdown: u64,
    /// Processes churn crashed; scripted crashes are traced, not counted.
    pub churn_crashes: u64,
    /// Processes churn recovered; scripted recoveries likewise.
    pub churn_recoveries: u64,
}

impl EnvelopeLedger {
    /// Sends that survived the network and entered flight.
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.sent - self.dropped_channel - self.dropped_partitioned
    }

    /// The one in-flight formula, `sent − delivered − Σ drops`; `None`
    /// when more were resolved than sent, which no substrate may report.
    #[must_use]
    pub fn in_flight(&self) -> Option<u64> {
        let dropped = self.dropped_channel
            + self.dropped_partitioned
            + self.dropped_crashed
            + self.dropped_observed
            + self.dropped_closed
            + self.dropped_shutdown;
        self.sent.checked_sub(self.delivered + dropped)
    }

    /// The envelopes that met `verdict`: one event each in an uncapped
    /// full trace. `None` for lifecycle verdicts, which scripted fates
    /// also emit.
    #[must_use]
    pub fn count(&self, verdict: TraceVerdict) -> Option<u64> {
        match verdict {
            TraceVerdict::Sent => Some(self.sent),
            TraceVerdict::Delivered => Some(self.delivered),
            TraceVerdict::DroppedChannel => Some(self.dropped_channel),
            TraceVerdict::DroppedPartitioned => Some(self.dropped_partitioned),
            TraceVerdict::DroppedCrashed => Some(self.dropped_crashed),
            TraceVerdict::DroppedObserved => Some(self.dropped_observed),
            TraceVerdict::Crashed | TraceVerdict::Recovered => None,
        }
    }

    /// Every field with its names in the `[simulator, pool]` registries;
    /// the simulator writes the first nine.
    #[rustfmt::skip]
    fn rows(&self) -> [([&'static str; 2], u64); 11] {
        [
            (["sim.sent", "rt.sent"], self.sent),
            (["sim.bytes_sent", "rt.bytes_sent"], self.bytes_sent),
            (["sim.delivered", "rt.delivered"], self.delivered),
            (["sim.dropped_channel", "rt.dropped_channel"], self.dropped_channel),
            (["sim.dropped_partitioned", "rt.dropped_partitioned"], self.dropped_partitioned),
            (["sim.dropped_crashed", "rt.dropped_crashed"], self.dropped_crashed),
            (["sim.dropped_observed_failed", "rt.dropped_observed_failed"], self.dropped_observed),
            (["sim.churn_crashes", "rt.churn_crashes"], self.churn_crashes),
            (["sim.churn_recoveries", "rt.churn_recoveries"], self.churn_recoveries),
            (["sim.dropped_closed", "rt.dropped_closed"], self.dropped_closed),
            (["sim.dropped_shutdown", "rt.dropped_shutdown"], self.dropped_shutdown),
        ]
    }
}

impl std::ops::AddAssign for EnvelopeLedger {
    /// Field-by-field sum: how a pool adds up its workers' ledgers.
    fn add_assign(&mut self, other: EnvelopeLedger) {
        self.sent += other.sent;
        self.bytes_sent += other.bytes_sent;
        self.delivered += other.delivered;
        self.dropped_channel += other.dropped_channel;
        self.dropped_partitioned += other.dropped_partitioned;
        self.dropped_crashed += other.dropped_crashed;
        self.dropped_observed += other.dropped_observed;
        self.dropped_closed += other.dropped_closed;
        self.dropped_shutdown += other.dropped_shutdown;
        self.churn_crashes += other.churn_crashes;
        self.churn_recoveries += other.churn_recoveries;
    }
}

/// The registry [`render`] writes a ledger into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Registry {
    /// The simulator's nine `sim.*` names.
    Sim,
    /// The pool's eleven `rt.*` names.
    Pool,
}

/// Writes `ledger` into `counters` under the benchmark package's names,
/// registering each once and overwriting its value after.
pub fn render(ledger: &EnvelopeLedger, registry: Registry, counters: &mut Counters) {
    let (column, rows) = match registry {
        Registry::Sim => (0, 9),
        Registry::Pool => (1, 11),
    };
    for (names, value) in ledger.rows().into_iter().take(rows) {
        let id = counters.register(names[column]);
        counters.add(id, value - counters.value(id));
    }
}

/// `counters` without the names [`render`] writes into either registry.
#[must_use]
pub fn protocol_labels(counters: &Counters) -> Counters {
    let rows = EnvelopeLedger::default().rows();
    let mut labels = Counters::new();
    for (name, value) in counters.iter() {
        if !rows.iter().any(|(names, _)| names.contains(&name)) {
            labels.add_named(name, value);
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger whose every field differs.
    fn distinct() -> EnvelopeLedger {
        EnvelopeLedger {
            sent: 100,
            bytes_sent: 800,
            delivered: 40,
            dropped_channel: 3,
            dropped_partitioned: 4,
            dropped_crashed: 5,
            dropped_observed: 6,
            dropped_closed: 7,
            dropped_shutdown: 8,
            churn_crashes: 9,
            churn_recoveries: 10,
        }
    }

    /// Each registry gets its names once, the pool's two more than the
    /// simulator's, and a second write overwrites instead of adding.
    #[test]
    fn render_writes_each_name_once_and_overwrites() {
        let mut sim = Counters::new();
        sim.bump("da.parasite");
        render(&EnvelopeLedger::default(), Registry::Sim, &mut sim);
        render(&distinct(), Registry::Sim, &mut sim);
        assert_eq!(sim.len(), 10);
        assert_eq!(sim.get("sim.sent"), 100);
        assert_eq!(sim.get("sim.dropped_observed_failed"), 6);
        assert_eq!(sim.get("sim.churn_recoveries"), 10);
        assert_eq!(sim.get("da.parasite"), 1);
        assert_eq!(sim.sum_prefix("sim.dropped_"), 3 + 4 + 5 + 6);

        let mut pool = Counters::new();
        render(&distinct(), Registry::Pool, &mut pool);
        assert_eq!(pool.len(), 11);
        assert_eq!(pool.get("rt.dropped_closed"), 7);
        assert_eq!(pool.get("rt.dropped_shutdown"), 8);
        assert_eq!(pool.sum_prefix("rt.dropped_"), 3 + 4 + 5 + 6 + 7 + 8);
        assert!(protocol_labels(&pool).is_empty());
        for name in ["da.parasite", "sim.parasite", "metro.sent", "sent"] {
            pool.bump(name);
        }
        render(&distinct(), Registry::Sim, &mut pool);
        let labels = protocol_labels(&pool);
        let labels: Vec<(&str, u64)> = labels.iter().collect();
        let kept = [
            ("da.parasite", 1),
            ("sim.parasite", 1),
            ("metro.sent", 1),
            ("sent", 1),
        ];
        assert_eq!(labels, kept);
    }

    /// The six verdicts a message can meet are rendered under their own
    /// labels, so a name in the registries and a verdict in the trace
    /// cannot name one category differently.
    #[test]
    fn envelope_verdicts_render_under_their_labels() {
        let ledger = distinct();
        let mut counters = Counters::new();
        render(&ledger, Registry::Pool, &mut counters);
        for verdict in [
            TraceVerdict::Sent,
            TraceVerdict::Delivered,
            TraceVerdict::DroppedChannel,
            TraceVerdict::DroppedPartitioned,
            TraceVerdict::DroppedCrashed,
            TraceVerdict::DroppedObserved,
        ] {
            let name = format!("rt.{verdict}");
            assert_eq!(Some(counters.get(&name)), ledger.count(verdict), "{name}");
        }
    }

    #[test]
    fn in_flight_is_checked_and_sums_add_field_by_field() {
        let ledger = EnvelopeLedger {
            sent: 10,
            delivered: 6,
            dropped_channel: 1,
            dropped_crashed: 1,
            ..EnvelopeLedger::default()
        };
        assert_eq!(ledger.queued(), 9, "the channel lost one at the send");
        assert_eq!(ledger.in_flight(), Some(2));
        let mut pool = distinct();
        assert_eq!(pool.in_flight(), Some(100 - 40 - (3 + 4 + 5 + 6 + 7 + 8)));
        pool += distinct();
        let doubled = distinct().rows().map(|(names, value)| (names, 2 * value));
        assert_eq!(pool.rows(), doubled);
        let over = EnvelopeLedger {
            sent: 1,
            delivered: 2,
            ..EnvelopeLedger::default()
        };
        assert_eq!(over.in_flight(), None);
    }
}
