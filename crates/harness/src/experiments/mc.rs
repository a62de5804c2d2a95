//! Bounded model checking of the daMulticast protocol itself — the
//! exhaustive counterpart of the statistical reliability sweeps.
//!
//! Figs. 8–11 *sample* executions; [`da_simnet::mc`] *walks* them. This
//! module instantiates the explorer for small single-group
//! dissemination scenarios (3–8 static-mode processes, one publication
//! from process 0) and states the paper's safety claims as [`Invariant`]s
//! checked in **every reachable state**:
//!
//! * [`NoParasite`] — zero parasite receptions (the paper's headline
//!   claim, Sec. I);
//! * [`NoDuplicateDelivery`] — the Fig. 5 de-dup check holds: no
//!   process delivers the same event twice;
//! * [`SuperTableWithinCapacity`] — no supertable exceeds its `z`-bound
//!   or lists its owner (Sec. VI-C memory claim);
//! * [`EnvelopeLedger`] — exact message accounting: every send is
//!   delivered, dropped for a named reason, or still in flight;
//! * [`FullDelivery`] (quiescent states of fault-free explorations
//!   only) — once the system settles, every process has delivered the
//!   publication.
//!
//! Every scenario here is one static root group, where two of these
//! pin nothing: no other topic exists, so no receipt can be a parasite,
//! and a root member's supertable is empty. [`NoParasite`] and
//! [`SuperTableWithinCapacity`] hold vacuously, and the paper's
//! zero-parasite and memory claims are not model-checked until the
//! explorer walks a multi-group topology.
//!
//! A violation comes back as a [`da_simnet::mc::Counterexample`] whose
//! scripted drops and crash fates replay as an ordinary `FaultConfig` on
//! either substrate; `tests/mc_regressions.rs` commits found counterexamples
//! as deterministic regression tests. The [`Mutation::SkipDedup`]
//! variant exists so the checker can demonstrate it actually finds
//! bugs: the mutant must yield a counterexample at the same bounds
//! where the shipped protocol verifies exhaustively.
//!
//! # Cost
//!
//! The walk is exponential, and its cost is in transitions: with one
//! drop and one crash, 5 processes under `PerDestination` ordering
//! explore 209 states over 1,322,904 transitions in under 10 s on a
//! 2-vCPU host. The module docs of [`da_simnet::mc`] tabulate the
//! measured walks, CI's among them, and list the knobs.

use da_core::ProcessId;
use da_simnet::mc::{Explorer, Invariant, McConfig, McReport};
use da_simnet::{Engine, SimConfig};
use damulticast::{DaProcess, EventId, Mutation, Network, TopicParams};

/// Seed of the scenario builders (tables are static; the seed only
/// shuffles initial view order).
const MC_SEED: u64 = 0xDA_4C;

/// The event process 0 publishes before round 0 in every scenario.
#[must_use]
pub fn published_event() -> EventId {
    EventId {
        publisher: ProcessId(0),
        sequence: 0,
    }
}

/// The choice-free base configuration every exploration starts from.
#[must_use]
pub fn base_config() -> SimConfig {
    // `SimConfig::default()` is already choice-free: reliable channel,
    // fixed latency 1, no failure model. The explorer validates this.
    SimConfig::default().with_seed(MC_SEED)
}

/// The process vector of the single-group scenario: `population`
/// static-mode processes in one root group, each with `mutation`
/// installed. Exposed so counterexample replays can run the identical
/// population on the live runtime (`tests/mc_regressions.rs`).
///
/// # Panics
///
/// Panics when `population` is zero (the network builder rejects it).
#[must_use]
pub fn single_group_processes(population: usize, mutation: Mutation) -> Vec<DaProcess> {
    Network::linear(&[population], TopicParams::default(), MC_SEED)
        .expect("a single positive group size is valid")
        .into_processes()
        .into_iter()
        .map(|p| p.with_mutation(mutation))
        .collect()
}

/// An engine factory for a single root-group of `population`
/// static-mode processes where process 0 publishes one event before
/// the first round. `mutation` installs a deliberate defect on every
/// process ([`Mutation::None`] for the shipped protocol).
pub fn single_group(
    population: usize,
    mutation: Mutation,
) -> impl Fn(SimConfig) -> Engine<DaProcess> {
    move |config| {
        let mut engine = Engine::new(config, single_group_processes(population, mutation));
        engine.process_mut(ProcessId(0)).publish("mc-probe");
        engine
    }
}

/// Zero parasite receptions anywhere, ever (Sec. I claim 4).
pub struct NoParasite;

impl Invariant<DaProcess> for NoParasite {
    fn name(&self) -> &str {
        "no-parasite"
    }

    fn check(&self, engine: &Engine<DaProcess>) -> Result<(), String> {
        for (pid, p) in engine.processes() {
            if p.parasite_count() > 0 {
                return Err(format!(
                    "{pid} received {} parasite event(s)",
                    p.parasite_count()
                ));
            }
        }
        Ok(())
    }
}

/// No process delivers an event id twice (Fig. 5's "done only the first
/// time"): its count of deliveries is the size of its delivered set.
pub struct NoDuplicateDelivery;

impl Invariant<DaProcess> for NoDuplicateDelivery {
    fn name(&self) -> &str {
        "no-duplicate-delivery"
    }

    fn check(&self, engine: &Engine<DaProcess>) -> Result<(), String> {
        for (pid, p) in engine.processes() {
            let (total, distinct) = (p.deliveries() as usize, p.delivered().len());
            if distinct != total {
                return Err(format!(
                    "{pid} delivered {total} event(s) but only {distinct} distinct id(s)"
                ));
            }
        }
        Ok(())
    }
}

/// Every supertable holds at most its group's `z` entries and never lists
/// its own process (Sec. VI-C: constant `z_Ti` entries).
pub struct SuperTableWithinCapacity;

impl Invariant<DaProcess> for SuperTableWithinCapacity {
    fn name(&self) -> &str {
        "supertable-capacity"
    }

    fn check(&self, engine: &Engine<DaProcess>) -> Result<(), String> {
        for (pid, p) in engine.processes() {
            let z = p.group().params().z;
            for table in p.super_tables() {
                if table.len() > z {
                    return Err(format!(
                        "{pid} supertable holds {} entries, z = {z}",
                        table.len()
                    ));
                }
                if table.entries().iter().any(|e| e.pid == pid) {
                    return Err(format!("{pid} lists itself in its supertable"));
                }
            }
        }
        Ok(())
    }
}

/// Exact envelope accounting: every send the engine ever accepted is
/// delivered, dropped for a named reason, or still in flight. A
/// violation means the substrate lost track of a message.
pub struct EnvelopeLedger;

impl Invariant<DaProcess> for EnvelopeLedger {
    fn name(&self) -> &str {
        "envelope-ledger"
    }

    fn check(&self, engine: &Engine<DaProcess>) -> Result<(), String> {
        let (ledger, wheel) = (engine.ledger(), engine.in_flight() as u64);
        match ledger.in_flight() {
            Some(in_flight) if in_flight == wheel => Ok(()),
            in_flight => Err(format!(
                "{ledger:?} leaves {in_flight:?} in flight, but the wheel holds {wheel}"
            )),
        }
    }
}

/// At quiescence every process has delivered the publication. Only
/// sound for fault-free explorations (no drop/crash budget): a severed
/// or crashed process legitimately misses events — the paper's
/// reliability under faults is *statistical* (Figs. 10–11), not a
/// safety property.
pub struct FullDelivery;

impl Invariant<DaProcess> for FullDelivery {
    fn name(&self) -> &str {
        "full-delivery"
    }

    fn check(&self, _engine: &Engine<DaProcess>) -> Result<(), String> {
        Ok(())
    }

    fn check_quiescent(&self, engine: &Engine<DaProcess>) -> Result<(), String> {
        let id = published_event();
        for (pid, p) in engine.processes() {
            if !p.has_delivered(id) {
                return Err(format!("{pid} never delivered {id:?} by quiescence"));
            }
        }
        Ok(())
    }
}

/// The safety invariant set for one exploration. [`FullDelivery`] is
/// included only when the exploration injects no faults (see its
/// docs).
#[must_use]
pub fn dissemination_explorer(config: McConfig) -> Explorer<DaProcess> {
    let fault_free = config.drop_budget == 0 && config.crash_budget == 0;
    let explorer = Explorer::new(config)
        .with_invariant(NoParasite)
        .with_invariant(NoDuplicateDelivery)
        .with_invariant(SuperTableWithinCapacity)
        .with_invariant(EnvelopeLedger);
    if fault_free {
        explorer.with_invariant(FullDelivery)
    } else {
        explorer
    }
}

/// Explores the single-group dissemination scenario and returns the
/// report: all interleavings (per `config.ordering`), all drop choices
/// and crash points within the budgets.
#[must_use]
pub fn verify_dissemination(population: usize, config: McConfig, mutation: Mutation) -> McReport {
    dissemination_explorer(config).explore(&base_config(), single_group(population, mutation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::{FailureModel, FaultConfig};
    use da_simnet::mc::{Counterexample, OrderingMode};

    /// The ISSUE's acceptance scenario: 3-process dissemination, all
    /// interleavings × per-envelope drop choices × one crash point,
    /// zero violations, exhaustive.
    #[test]
    fn three_process_dissemination_verifies_exhaustively() {
        let report = verify_dissemination(
            3,
            McConfig {
                max_rounds: 6,
                drop_budget: 1,
                crash_budget: 1,
                ..McConfig::default()
            },
            Mutation::None,
        );
        assert!(
            report.verified(),
            "violation: {:?}",
            report.violation.as_ref().map(Counterexample::summary)
        );
        // The protocol reconverges fast, so dedup merges most branches:
        // distinct states stay small while transitions count the real
        // branching (interleavings × drops × crash points). The counts are
        // pinned: a change that moves the walk moves this line.
        assert_eq!(walk(&report), (73, 636, 535, 29));
    }

    /// States, transitions, dedup hits and quiescent leaves of a walk.
    fn walk(report: &McReport) -> (usize, usize, usize, usize) {
        let s = report.stats;
        (s.states, s.transitions, s.dedup_hits, s.quiescent_leaves)
    }

    #[test]
    fn fault_free_exploration_proves_full_delivery() {
        let report = verify_dissemination(3, McConfig::default(), Mutation::None);
        assert!(report.verified());
    }

    /// Satellite 4, harness side: the broken protocol variant yields a
    /// counterexample within the depth bound where the shipped
    /// protocol passes exhaustively — and the counterexample replays
    /// as a scripted FaultConfig.
    #[test]
    fn skip_dedup_mutant_is_caught_and_replayable() {
        let config = McConfig {
            max_rounds: 6,
            ordering: OrderingMode::Fixed,
            ..McConfig::default()
        };
        let clean = verify_dissemination(3, config, Mutation::None);
        assert!(clean.verified(), "shipped protocol passes at these bounds");

        let mutant = verify_dissemination(3, config, Mutation::SkipDedup);
        let ce = mutant.violation.expect("mutant caught at the same bounds");
        assert_eq!(ce.invariant, "no-duplicate-delivery");
        assert!(ce.fifo_replayable, "gossip echo does not need reordering");
        let faults = ce.to_fault_config(&FaultConfig::default());
        assert!(matches!(faults.failure, FailureModel::Schedule(_)));
    }

    /// CI's bounded 5-process walk (`mc_explore --procs 5 --rounds 5
    /// --drops 0 --crashes 0 --ordering por --max-states 50000`), pinned
    /// like the 3-process one: per-destination ordering folds every
    /// interleaving into 4 states.
    #[test]
    fn five_process_bounded_search_stays_clean() {
        let report = verify_dissemination(
            5,
            McConfig {
                max_rounds: 5,
                ordering: OrderingMode::PerDestination,
                max_states: 50_000,
                ..McConfig::default()
            },
            Mutation::None,
        );
        assert!(report.verified());
        assert_eq!(walk(&report), (4, 31_107, 31_103, 1));
    }
}
