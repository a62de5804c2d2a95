//! The typed envelope ledger both substrates fill, and the one place it
//! and the protocols' [`Tally`] get the names the benchmark package still
//! reads from the counter registries (`sim.sent`, `rt.sent`,
//! `da.delivered.2`): a [`Renderer`] writes them.

use crate::metrics::{CounterId, Counters, Family, Kind, Tally, COLUMNS, KINDS};
use crate::trace::TraceVerdict;
use std::fmt::Write;

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

/// The registry a [`Renderer`] writes a ledger into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Registry {
    /// The simulator's nine `sim.*` names.
    Sim,
    /// The pool's eleven `rt.*` names.
    Pool,
}

/// Writes a substrate's ledger and tally into one [`Counters`] registry.
/// A tally cell's name is registered once, when the cell is first
/// non-zero, so a render that meets no new cell allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Renderer {
    /// The registry slot of each tally cell named so far.
    cells: Vec<Option<CounterId>>,
}

impl Renderer {
    /// Writes `ledger` and `tally` into `counters`, a `registry`,
    /// overwriting what an earlier render wrote.
    pub fn render(
        &mut self,
        registry: Registry,
        ledger: &EnvelopeLedger,
        tally: &Tally,
        counters: &mut Counters,
    ) {
        let (column, rows) = match registry {
            Registry::Sim => (0, 9),
            Registry::Pool => (1, 11),
        };
        for (names, value) in ledger.rows().into_iter().take(rows) {
            let id = counters.register(names[column]);
            counters.add(id, value - counters.value(id));
        }
        self.cells
            .resize(self.cells.len().max(tally.cells.len()), None);
        for (at, value) in tally.nonzero() {
            let id = *self.cells[at].get_or_insert_with(|| counters.register(name(at)));
            counters.add(id, value - counters.value(id));
        }
    }
}

/// The name of the tally cell at `at`: `da.intra.2` for daMulticast's
/// per-group kinds, `da.parasite` or `bc.sent` for a kind counted under
/// group 0, and any other group's key appended.
fn name(at: usize) -> String {
    const FAMILIES: [&str; COLUMNS / KINDS] = ["da", "bc", "mc", "hc", "metro"];
    #[rustfmt::skip]
    const KIND: [&str; KINDS] = ["intra", "inter_out", "inter_in", "delivered", "duplicate",
        "control", "parasite", "sent", "sent_intra", "sent_inter", "first_delivery"];
    let (group, family, kind) = (at / COLUMNS, at % COLUMNS / KINDS, at % KINDS);
    let mut name = String::with_capacity(32);
    let _ = write!(name, "{}.{}.{group}", FAMILIES[family], KIND[kind]);
    if group == 0 && (family != Family::Da as usize || kind == Kind::Parasite as usize) {
        name.truncate(name.len() - ".0".len());
    }
    name
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
    /// simulator's, and a second write overwrites instead of adding —
    /// the ledger's names and the tally's alike, beside a fixture's.
    #[test]
    fn render_writes_each_name_once_and_overwrites() {
        let mut sim = Counters::new();
        sim.bump("probe.heard");
        let mut tally = Tally::default();
        let mut renderer = Renderer::default();
        renderer.render(Registry::Sim, &EnvelopeLedger::default(), &tally, &mut sim);
        assert_eq!(sim.len(), 10, "no cell is non-zero yet");
        tally.count(Family::Da, Kind::Parasite, 0);
        renderer.render(Registry::Sim, &distinct(), &tally, &mut sim);
        tally.count(Family::Da, Kind::Parasite, 0);
        renderer.render(Registry::Sim, &distinct(), &tally, &mut sim);
        assert_eq!(sim.len(), 11);
        assert_eq!(sim.get("sim.sent"), 100);
        assert_eq!(sim.get("sim.dropped_observed_failed"), 6);
        assert_eq!(sim.get("sim.churn_recoveries"), 10);
        assert_eq!(sim.get("da.parasite"), 2);
        assert_eq!(sim.get("probe.heard"), 1);
        assert_eq!(sim.sum_prefix("sim.dropped_"), 3 + 4 + 5 + 6);

        let mut pool = Counters::new();
        Renderer::default().render(Registry::Pool, &distinct(), &Tally::default(), &mut pool);
        assert_eq!(pool.len(), 11);
        assert_eq!(pool.get("rt.dropped_closed"), 7);
        assert_eq!(pool.get("rt.dropped_shutdown"), 8);
        assert_eq!(pool.sum_prefix("rt.dropped_"), 3 + 4 + 5 + 6 + 7 + 8);
    }

    /// Every kind's cells render under today's names: daMulticast's
    /// per-group kinds with the group key, the rest bare under group 0.
    #[test]
    fn tally_cells_render_under_their_protocols_prefixes() {
        use Family::{Broadcast, Da, Hierarchical, Metro, Multicast};
        let counts = [
            (Da, Kind::Intra, 2, "da.intra.2"),
            (Da, Kind::InterOut, 1, "da.inter_out.1"),
            (Da, Kind::InterIn, 0, "da.inter_in.0"),
            (Da, Kind::Delivered, 0, "da.delivered.0"),
            (Da, Kind::Duplicate, 3, "da.duplicate.3"),
            (Da, Kind::Control, 1, "da.control.1"),
            (Da, Kind::Parasite, 0, "da.parasite"),
            (Broadcast, Kind::Sent, 0, "bc.sent"),
            (Multicast, Kind::Delivered, 0, "mc.delivered"),
            (Hierarchical, Kind::SentIntra, 0, "hc.sent_intra"),
            (Hierarchical, Kind::SentInter, 0, "hc.sent_inter"),
            (Hierarchical, Kind::Duplicate, 0, "hc.duplicate"),
            (Broadcast, Kind::Parasite, 0, "bc.parasite"),
            (Metro, Kind::FirstDelivery, 0, "metro.first_delivery"),
            (Metro, Kind::Duplicate, 0, "metro.duplicate"),
            (Metro, Kind::Duplicate, 4, "metro.duplicate.4"),
        ];
        let mut tally = Tally::default();
        for (i, &(family, kind, group, _)) in counts.iter().enumerate() {
            for _ in 0..=i {
                tally.count(family, kind, group);
            }
        }
        let mut counters = Counters::new();
        Renderer::default().render(
            Registry::Sim,
            &EnvelopeLedger::default(),
            &tally,
            &mut counters,
        );
        for (i, (family, kind, group, name)) in counts.into_iter().enumerate() {
            assert_eq!(counters.get(name), i as u64 + 1, "{name}");
            assert_eq!(tally.get(family, kind, group), i as u64 + 1, "{name}");
        }
        assert_eq!(counters.len(), 9 + counts.len());
    }

    /// The six verdicts a message can meet are rendered under their own
    /// labels, so a name in the registries and a verdict in the trace
    /// cannot name one category differently.
    #[test]
    fn envelope_verdicts_render_under_their_labels() {
        let ledger = distinct();
        let mut counters = Counters::new();
        Renderer::default().render(Registry::Pool, &ledger, &Tally::default(), &mut counters);
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
