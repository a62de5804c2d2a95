//! Bounded model checking over the deterministic engine.
//!
//! Statistical sweeps sample the space of executions; this module
//! *walks* it. For small populations (3–8 processes) the explorer
//! drives [`Engine`] through every choice of
//!
//! * **message ordering** — the order a round's due set is delivered
//!   in, chosen once per round ([`OrderingMode`]: fixed FIFO,
//!   per-destination partial-order reduction, or every permutation),
//! * **per-envelope drops** — each send may be killed, up to a drop
//!   budget, and
//! * **crash points** — at each round boundary any alive process may
//!   crash, up to a crash budget,
//!
//! asserting a pluggable [`Invariant`] set in **every reachable
//! state**. The walk is a depth-first search over cloned engines with
//! visited-state deduplication on [`Engine::state_digest`], bounded by
//! [`McConfig::max_rounds`] and [`McConfig::max_states`].
//!
//! Everything rides the production code path: choices are injected
//! through the [`Strategy`] seam into the same `step_round_with` that
//! production simulations run, crash points go through
//! [`Engine::schedule_fate`] (the scripted-fate path), and a violation
//! is reported as a [`Counterexample`] whose drops and fates replay as
//! an ordinary scripted [`FaultConfig`] on **either substrate** — the
//! simulator or the live worker-pool runtime — with its canonical
//! trace stream attached.
//!
//! # Soundness notes
//!
//! * The base [`SimConfig`] must be *choice-free*: its channel gives
//!   every send one certain fate — it always delivers after one fixed
//!   latency, or it never delivers — no RNG-driven failure model, no
//!   pre-scripted drops.
//!   [`Explorer::explore`] validates this and panics otherwise —
//!   randomness left in the base model would make "all interleavings"
//!   a lie. Scripted partitions are fine (they are pure functions of
//!   the tick).
//! * Per-destination partial-order reduction
//!   ([`OrderingMode::PerDestination`]) fixes the delivery order
//!   *between* destinations (ascending pid) and enumerates orders
//!   *within* each destination. Deliveries to different processes in
//!   the same round commute: process state and RNG streams are
//!   per-process, counter updates are commutative, and — because
//!   latency is clamped ≥ 1 — nothing sent during a round is delivered
//!   in it, so the round's due set is closed before delivery starts.
//!   End-of-round states are therefore preserved up to the order of
//!   same-round queue entries, which invariants cannot observe.
//! * Invariants are checked on round boundaries (every explored
//!   `step_round_with` successor), not between individual deliveries
//!   inside a round.
//!
//! # Cost
//!
//! Exhaustive exploration is exponential in budgets and population, and
//! the cost is in transitions, not states: the visited set folds almost
//! every transition into a state already seen. Single-group
//! dissemination with one publish, measured on a 2-vCPU Xeon host in a
//! release build:
//!
//! | walk | states | transitions | time |
//! |---|---|---|---|
//! | 3 processes, 6 rounds, full ordering, 1 drop, 1 crash | 73 | 636 | 4 ms |
//! | 5 processes, 6 rounds, `PerDestination`, 1 drop, 1 crash | 209 | 1,322,904 | 5.5–7.3 s |
//! | 5 processes, 5 rounds, `PerDestination`, no faults | 4 | 31,107 | 0.11–0.12 s |
//!
//! [`McConfig::max_states`] bounds the walk's states, so it cannot bound
//! a walk of few states and many transitions; check
//! [`ExploreStats::exhausted`] to know whether the result is a proof
//! (within the bounds) or a search.

use crate::engine::{Engine, SimConfig};
use crate::strategy::Strategy;
use da_core::channel::{ChannelConfig, ChannelFate};
use da_core::exec::{ExecProtocol, McHash};
use da_core::failure::{FailureModel, Fate};
use da_core::fault::FaultConfig;
use da_core::metrics::FxHasher;
use da_core::network::{DropSchedule, NetFate, NetworkModel, Occurrences, ScriptedDrop};
use da_core::process::ProcessId;
use da_core::trace::{canonicalize, TraceConfig, TraceEvent};
use da_core::wheel::Envelope;
use da_core::wire::WireSize;
use rand::rngs::SmallRng;
use std::collections::HashSet;

/// A safety property checked in every reachable state.
///
/// `check` runs after every explored round; `check_quiescent` runs
/// additionally on quiescent leaves (nothing delivered, nothing sent,
/// nothing in flight) — the place for convergence-style properties
/// that only hold once the protocol has settled.
pub trait Invariant<P: ExecProtocol> {
    /// Short name, used in reports and counterexamples.
    fn name(&self) -> &str;

    /// Checks the property; `Err(detail)` is a violation.
    fn check(&self, engine: &Engine<P>) -> Result<(), String>;

    /// Extra check at quiescent leaves. Default: nothing.
    fn check_quiescent(&self, engine: &Engine<P>) -> Result<(), String> {
        let _ = engine;
        Ok(())
    }
}

/// How much delivery-order nondeterminism the explorer enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingMode {
    /// FIFO `(round, seq)` order only — no ordering choice points.
    /// Explores drop/crash nondeterminism but a single interleaving.
    Fixed,
    /// Partial-order reduction: fixed order between destinations
    /// (ascending pid), all orders within a destination. Sound for
    /// round-boundary invariants (see the module docs) and
    /// exponentially cheaper than [`OrderingMode::Full`].
    PerDestination,
    /// Every permutation of the round's due set. The reference mode.
    #[default]
    Full,
}

/// Bounds and knobs of one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Depth bound: rounds explored per branch.
    pub max_rounds: u64,
    /// How many sends the explorer may kill along one branch.
    pub drop_budget: u32,
    /// How many crash injections along one branch.
    pub crash_budget: u32,
    /// Delivery-order enumeration mode.
    pub ordering: OrderingMode,
    /// Hard cap on distinct states; hitting it sets
    /// [`ExploreStats::truncated`] and clears `exhausted`.
    pub max_states: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_rounds: 6,
            drop_budget: 0,
            crash_budget: 0,
            ordering: OrderingMode::Full,
            max_states: 1_000_000,
        }
    }
}

/// Search statistics of one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states visited (root included).
    pub states: usize,
    /// Round executions performed (edges of the state graph, including
    /// ones that landed on an already-visited state).
    pub transitions: usize,
    /// Deepest round reached along any branch.
    pub max_round: u64,
    /// Successors discarded because their digest was already visited.
    pub dedup_hits: usize,
    /// Quiescent leaves (branches that settled before the depth bound).
    pub quiescent_leaves: usize,
    /// True when the walk hit [`McConfig::max_states`] and stopped.
    pub truncated: bool,
    /// True when every branch ran to quiescence or the depth bound —
    /// i.e. the invariants are *proven* within the configured bounds.
    pub exhausted: bool,
}

/// A violation found by the explorer, replayable as a scripted
/// [`FaultConfig`] on either substrate.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Name of the violated invariant.
    pub invariant: String,
    /// The invariant's failure detail.
    pub detail: String,
    /// Round after which the violation was observed.
    pub round: u64,
    /// Crash fates injected along the branch.
    pub fates: Vec<Fate>,
    /// Sends the explorer killed along the branch.
    pub drops: Vec<ScriptedDrop>,
    /// True when replaying `to_fault_config` under plain FIFO
    /// `step_round` reproduces a violation — i.e. the counterexample
    /// does not depend on a non-FIFO interleaving.
    pub fifo_replayable: bool,
    /// Canonical trace stream of the FIFO replay (empty when the
    /// violation is order-dependent).
    pub trace: Vec<TraceEvent>,
}

impl Counterexample {
    /// The scripted fault configuration that replays this branch's
    /// drops and crashes on top of `base` — runnable on the simulator
    /// or the live runtime, with zero randomness involved.
    #[must_use]
    pub fn to_fault_config(&self, base: &FaultConfig) -> FaultConfig {
        FaultConfig {
            network: base
                .network
                .clone()
                .with_drops(DropSchedule::none().with_drops(self.drops.iter().copied())),
            failure: FailureModel::Schedule(self.fates.clone()),
        }
    }

    /// One-paragraph human rendering (invariant, round, injected
    /// faults).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "invariant `{}` violated after round {}: {} (injected {} drop(s), {} fate(s); {})",
            self.invariant,
            self.round,
            self.detail,
            self.drops.len(),
            self.fates.len(),
            if self.fifo_replayable {
                "replays under FIFO"
            } else {
                "order-dependent"
            }
        )
    }
}

/// Outcome of one exploration: statistics plus the first violation, if
/// any.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Search statistics.
    pub stats: ExploreStats,
    /// First invariant violation found, or `None` when the bounded
    /// space is clean.
    pub violation: Option<Counterexample>,
}

impl McReport {
    /// True when no violation was found *and* the walk was exhaustive
    /// within its bounds.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.violation.is_none() && self.stats.exhausted
    }
}

/// The script-following strategy that walks one enumerated branch of a
/// round. Choices already on the trail are replayed; the first
/// un-scripted choice point and everything after it greedily takes
/// option 0, extending the trail, and sibling trails are emitted for
/// the options not taken — the classic schedule-tree enumeration.
struct ScriptStrategy {
    trail: Vec<usize>,
    options_at: Vec<usize>,
    pos: usize,
    fixed: usize,
    ordering: OrderingMode,
    drops_remaining: u32,
    drops_made: Vec<ScriptedDrop>,
    occurrences: Occurrences,
}

impl ScriptStrategy {
    fn new(trail: Vec<usize>, drops_remaining: u32, ordering: OrderingMode) -> Self {
        let fixed = trail.len();
        ScriptStrategy {
            options_at: vec![0; fixed],
            trail,
            pos: 0,
            fixed,
            ordering,
            drops_remaining,
            drops_made: Vec::new(),
            occurrences: Occurrences::default(),
        }
    }

    /// Picks among `options` alternatives: replay the trail, or extend
    /// it greedily with option 0. Single-option points consume no
    /// trail.
    fn choose(&mut self, options: usize) -> usize {
        if options <= 1 {
            return 0;
        }
        let pick = if self.pos < self.trail.len() {
            self.options_at[self.pos] = options;
            self.trail[self.pos]
        } else {
            self.trail.push(0);
            self.options_at.push(options);
            0
        };
        self.pos += 1;
        pick
    }

    /// Builds one permutation of `due` from the front: each step moves
    /// the chosen one of the envelopes not yet placed to the next
    /// position, and the rest keep their relative order.
    fn permute<M>(&mut self, due: &mut [Envelope<M>]) {
        for placed in 0..due.len() {
            let pick = self.choose(due.len() - placed);
            due[placed..=placed + pick].rotate_right(1);
        }
    }

    /// Trails for the siblings of every choice point this run extended.
    fn siblings(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for i in self.fixed..self.trail.len() {
            for k in 1..self.options_at[i] {
                let mut trail = self.trail[..i].to_vec();
                trail.push(k);
                out.push(trail);
            }
        }
        out
    }
}

/// The one fate `channel` gives every send, known without a draw:
/// `Lost` when it never delivers, whatever its latency, and `Deliver`
/// when it always delivers after a fixed delay. `None` for a lossy or
/// jittery channel — a choice the explorer does not own.
fn certain_fate(channel: ChannelConfig) -> Option<ChannelFate> {
    if channel.success_probability <= 0.0 {
        Some(ChannelFate::Lost)
    } else if channel.success_probability >= 1.0 && channel.min_latency() == channel.max_latency() {
        Some(ChannelFate::Deliver {
            latency: channel.min_latency(),
        })
    } else {
        None
    }
}

impl Strategy for ScriptStrategy {
    fn fate(
        &mut self,
        network: &NetworkModel,
        from: ProcessId,
        to: ProcessId,
        tick: u64,
        _occurrence: u32,
        _rng: &mut SmallRng,
    ) -> NetFate {
        // The engine only tracks occurrences when the *network* has
        // scripted drops; the explorer needs them regardless, to
        // record replayable drops, so it keeps its own per-round count.
        let occurrence = self.occurrences.bump(from, to);
        if network.partitions.severed(from, to, tick) {
            return NetFate::Severed;
        }
        // The base model is validated choice-free: exactly one channel
        // fate, decided without randomness.
        let deliver = match certain_fate(network.channel) {
            Some(ChannelFate::Deliver { latency }) => NetFate::Deliver { latency },
            Some(ChannelFate::Lost) => return NetFate::Lost,
            None => unreachable!("explore() validated the base model as choice-free"),
        };
        if self.drops_remaining == 0 {
            return deliver;
        }
        if self.choose(2) == 1 {
            self.drops_remaining -= 1;
            self.drops_made.push(ScriptedDrop {
                tick,
                from,
                to,
                occurrence,
            });
            NetFate::Lost
        } else {
            deliver
        }
    }

    fn order<M>(&mut self, due: &mut [Envelope<M>]) {
        match self.ordering {
            OrderingMode::Fixed => {}
            OrderingMode::PerDestination => {
                due.sort_by_key(|m| m.to);
                for group in due.chunk_by_mut(|a, b| a.to == b.to) {
                    self.permute(group);
                }
            }
            OrderingMode::Full => self.permute(due),
        }
    }
}

/// One node of the search: an engine state plus the branch that
/// reached it.
struct SearchNode<P: ExecProtocol> {
    engine: Engine<P>,
    drops_used: u32,
    crashes_used: u32,
    fates: Vec<Fate>,
    drops: Vec<ScriptedDrop>,
}

/// The bounded model checker: a [`McConfig`] plus an [`Invariant`]
/// set, run over engines produced by a caller-supplied factory.
pub struct Explorer<P: ExecProtocol> {
    config: McConfig,
    invariants: Vec<Box<dyn Invariant<P>>>,
}

impl<P> Explorer<P>
where
    P: ExecProtocol + Clone + McHash,
    P::Msg: Clone + std::fmt::Debug + WireSize + McHash,
{
    /// An explorer with the given bounds and no invariants.
    #[must_use]
    pub fn new(config: McConfig) -> Self {
        Explorer {
            config,
            invariants: Vec::new(),
        }
    }

    /// Adds an invariant to check in every reachable state.
    #[must_use]
    pub fn with_invariant<I: Invariant<P> + 'static>(mut self, invariant: I) -> Self {
        self.invariants.push(Box::new(invariant));
        self
    }

    /// Explores every bounded execution of the system `make` builds.
    ///
    /// `base` is the choice-free starting configuration; `make` must
    /// build a fresh engine (same processes, same initial state) from
    /// whatever `SimConfig` it is given — the explorer calls it once
    /// with tracing forced off for the root, and again with scripted
    /// faults and full tracing to verify and render a counterexample.
    ///
    /// # Panics
    ///
    /// Panics when `base` still contains nondeterminism the explorer
    /// does not control: a lossy or jittery channel, an RNG-driven
    /// failure model, or pre-scripted drops.
    pub fn explore<F>(&self, base: &SimConfig, make: F) -> McReport
    where
        F: Fn(SimConfig) -> Engine<P>,
    {
        Self::validate_base(base);
        let mut root_config = base.clone();
        root_config.trace = TraceConfig::off();
        let root = make(root_config);

        let mut stats = ExploreStats {
            states: 1,
            exhausted: true,
            ..ExploreStats::default()
        };
        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(self.budgeted_digest(&root, 0, 0));

        let mut stack: Vec<SearchNode<P>> = vec![SearchNode {
            engine: root,
            drops_used: 0,
            crashes_used: 0,
            fates: Vec::new(),
            drops: Vec::new(),
        }];

        while let Some(node) = stack.pop() {
            if node.engine.current_round() >= self.config.max_rounds {
                continue;
            }
            for liveness in self.liveness_options(&node) {
                // Enumerate every decision trail of this round via
                // sibling generation (see ScriptStrategy).
                let mut trails = vec![Vec::new()];
                while let Some(trail) = trails.pop() {
                    let mut engine = node.engine.clone();
                    if let Some(fate) = liveness {
                        engine.schedule_fate(fate);
                    }
                    let mut strategy = ScriptStrategy::new(
                        trail,
                        self.config.drop_budget - node.drops_used,
                        self.config.ordering,
                    );
                    let report = engine.step_round_with(&mut strategy);
                    trails.extend(strategy.siblings());
                    stats.transitions += 1;
                    stats.max_round = stats.max_round.max(engine.current_round());

                    let quiescent = report.is_quiet();
                    if let Some(violation) = self.check_state(&engine, quiescent) {
                        let (invariant, detail) = violation;
                        let mut fates = node.fates.clone();
                        fates.extend(liveness);
                        let mut drops = node.drops.clone();
                        drops.extend(strategy.drops_made.iter().copied());
                        let counterexample = self.verify_fifo_replay(
                            base,
                            &make,
                            Counterexample {
                                invariant,
                                detail,
                                round: report.tick,
                                fates,
                                drops,
                                fifo_replayable: false,
                                trace: Vec::new(),
                            },
                        );
                        stats.exhausted = false;
                        return McReport {
                            stats,
                            violation: Some(counterexample),
                        };
                    }

                    if quiescent && liveness.is_none() {
                        stats.quiescent_leaves += 1;
                        continue;
                    }

                    let drops_used = node.drops_used + strategy.drops_made.len() as u32;
                    let crashes_used = node.crashes_used + u32::from(liveness.is_some());
                    let digest = self.budgeted_digest(&engine, drops_used, crashes_used);
                    if !visited.insert(digest) {
                        stats.dedup_hits += 1;
                        continue;
                    }
                    stats.states += 1;
                    if stats.states >= self.config.max_states {
                        stats.truncated = true;
                        stats.exhausted = false;
                        return McReport {
                            stats,
                            violation: None,
                        };
                    }

                    let mut fates = node.fates.clone();
                    fates.extend(liveness);
                    let mut drops = node.drops.clone();
                    drops.extend(strategy.drops_made.iter().copied());
                    stack.push(SearchNode {
                        engine,
                        drops_used,
                        crashes_used,
                        fates,
                        drops,
                    });
                }
            }
        }

        McReport {
            stats,
            violation: None,
        }
    }

    /// The liveness choices at a round boundary: do nothing, or crash any
    /// alive process (budget permitting).
    fn liveness_options(&self, node: &SearchNode<P>) -> Vec<Option<Fate>> {
        let round = node.engine.current_round();
        let mut options: Vec<Option<Fate>> = vec![None];
        if node.crashes_used < self.config.crash_budget {
            for pid in node.engine.alive() {
                options.push(Some(Fate {
                    round,
                    pid,
                    crash: true,
                }));
            }
        }
        options
    }

    /// Runs every invariant (plus quiescent checks at leaves);
    /// `Some((name, detail))` on the first failure.
    fn check_state(&self, engine: &Engine<P>, quiescent: bool) -> Option<(String, String)> {
        for invariant in &self.invariants {
            if let Err(detail) = invariant.check(engine) {
                return Some((invariant.name().to_string(), detail));
            }
            if quiescent {
                if let Err(detail) = invariant.check_quiescent(engine) {
                    return Some((invariant.name().to_string(), detail));
                }
            }
        }
        None
    }

    /// Digest of the engine state *plus* the branch budgets: two equal
    /// engine states with different remaining budgets have different
    /// reachable futures and must not be merged.
    fn budgeted_digest(&self, engine: &Engine<P>, drops_used: u32, crashes_used: u32) -> u64 {
        use std::hash::Hasher as _;
        let mut h = FxHasher::default();
        h.write_u64(engine.state_digest());
        h.write_u32(drops_used);
        h.write_u32(crashes_used);
        h.finish()
    }

    /// Replays the counterexample's scripted faults under plain FIFO
    /// `step_round` with full tracing: when a violation reproduces,
    /// the counterexample is marked replayable and carries the
    /// canonical trace stream of the replay.
    fn verify_fifo_replay<F>(
        &self,
        base: &SimConfig,
        make: &F,
        mut counterexample: Counterexample,
    ) -> Counterexample
    where
        F: Fn(SimConfig) -> Engine<P>,
    {
        let mut replay_config = base.clone();
        replay_config.faults = counterexample.to_fault_config(&base.faults);
        replay_config.trace = TraceConfig::full();
        let mut engine = make(replay_config);
        for _ in 0..self.config.max_rounds {
            let report = engine.step_round();
            let quiescent = report.is_quiet();
            if self.check_state(&engine, quiescent).is_some() {
                counterexample.fifo_replayable = true;
                let mut events = engine.trace_log().map(|log| log.events).unwrap_or_default();
                canonicalize(&mut events);
                counterexample.trace = events;
                return counterexample;
            }
            if quiescent {
                break;
            }
        }
        counterexample
    }

    /// Validates that `base` contains no nondeterminism the explorer
    /// does not control.
    fn validate_base(base: &SimConfig) {
        let network = &base.faults.network;
        assert!(
            certain_fate(network.channel).is_some(),
            "model checking needs a choice-free channel \
             (reliable with one fixed latency, or never delivering); got {:?}",
            network.channel
        );
        assert!(
            network.drops.is_empty(),
            "base model must not pre-script drops; the explorer owns them"
        );
        assert!(
            matches!(base.faults.failure, FailureModel::None),
            "model checking needs FailureModel::None in the base \
             config; crash points are explored, not sampled"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::Exec;
    use std::hash::Hasher;

    /// A deterministic broadcast protocol: process 0 sends one `Token`
    /// to everyone at start; receivers re-broadcast the first time they
    /// see it (flood). `buggy` skips the seen-check, re-broadcasting
    /// forever — the mutation the checker must catch.
    #[derive(Clone, Debug)]
    struct Flood {
        population: u32,
        seen: bool,
        deliveries: u32,
        buggy: bool,
    }

    #[derive(Clone, Debug)]
    struct Token;

    impl WireSize for Token {
        fn wire_size(&self) -> usize {
            1
        }
    }

    impl McHash for Token {
        fn mc_hash(&self, state: &mut dyn Hasher) {
            state.write_u8(1);
        }
    }

    impl McHash for Flood {
        fn mc_hash(&self, state: &mut dyn Hasher) {
            state.write_u8(u8::from(self.seen));
            state.write_u32(self.deliveries);
        }
    }

    impl ExecProtocol for Flood {
        type Msg = Token;

        fn on_start<X: Exec<Msg = Token>>(&mut self, ctx: &mut X) {
            if ctx.me() == ProcessId(0) {
                self.seen = true;
                for i in 1..self.population {
                    ctx.send(ProcessId(i), Token);
                }
            }
        }

        fn on_message<X: Exec<Msg = Token>>(&mut self, _from: ProcessId, _msg: Token, ctx: &mut X) {
            self.deliveries += 1;
            if !self.seen || self.buggy {
                self.seen = true;
                for i in 0..self.population {
                    if ProcessId(i) != ctx.me() {
                        ctx.send(ProcessId(i), Token);
                    }
                }
            }
        }
    }

    fn flood_engine(n: u32, buggy: bool) -> impl Fn(SimConfig) -> Engine<Flood> {
        move |config| {
            Engine::new(
                config,
                (0..n)
                    .map(|_| Flood {
                        population: n,
                        seen: false,
                        deliveries: 0,
                        buggy,
                    })
                    .collect(),
            )
        }
    }

    /// No process may deliver the token more than `population` times
    /// (a correct flood delivers ≤ n-1 copies; the buggy one loops).
    struct BoundedDeliveries;

    impl Invariant<Flood> for BoundedDeliveries {
        fn name(&self) -> &str {
            "bounded-deliveries"
        }

        fn check(&self, engine: &Engine<Flood>) -> Result<(), String> {
            for (pid, p) in engine.processes() {
                if p.deliveries >= p.population {
                    return Err(format!(
                        "{pid} delivered {} times (population {})",
                        p.deliveries, p.population
                    ));
                }
            }
            Ok(())
        }
    }

    /// At quiescence with no faults injected, everyone has seen the
    /// token.
    struct EveryoneSees;

    impl Invariant<Flood> for EveryoneSees {
        fn name(&self) -> &str {
            "everyone-sees"
        }

        fn check(&self, _engine: &Engine<Flood>) -> Result<(), String> {
            Ok(())
        }

        fn check_quiescent(&self, engine: &Engine<Flood>) -> Result<(), String> {
            for (pid, p) in engine.processes() {
                if !p.seen {
                    return Err(format!("{pid} never saw the token"));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn exhaustive_clean_flood_verifies() {
        let explorer = Explorer::new(McConfig {
            max_rounds: 6,
            ..McConfig::default()
        })
        .with_invariant(BoundedDeliveries)
        .with_invariant(EveryoneSees);
        let report = explorer.explore(&SimConfig::default(), flood_engine(3, false));
        assert!(report.verified(), "clean flood must verify: {report:?}");
        assert!(report.stats.states > 1);
        assert!(report.stats.quiescent_leaves > 0);
    }

    #[test]
    fn ordering_modes_agree_on_reachable_verdicts() {
        // POR and Full must agree on the verdict (POR is sound for
        // round-boundary invariants); Fixed explores a subset.
        for ordering in [
            OrderingMode::Fixed,
            OrderingMode::PerDestination,
            OrderingMode::Full,
        ] {
            let explorer = Explorer::new(McConfig {
                max_rounds: 6,
                ordering,
                ..McConfig::default()
            })
            .with_invariant(BoundedDeliveries);
            let report = explorer.explore(&SimConfig::default(), flood_engine(3, false));
            assert!(report.verified(), "{ordering:?} must verify");
        }
    }

    #[test]
    fn por_explores_no_more_than_full() {
        let states = |ordering| {
            Explorer::new(McConfig {
                max_rounds: 6,
                ordering,
                ..McConfig::default()
            })
            .with_invariant(BoundedDeliveries)
            .explore(&SimConfig::default(), flood_engine(3, false))
            .stats
        };
        let fixed = states(OrderingMode::Fixed);
        let por = states(OrderingMode::PerDestination);
        let full = states(OrderingMode::Full);
        assert!(fixed.transitions <= por.transitions);
        assert!(por.transitions <= full.transitions);
    }

    /// Processes 0–2 each send one message to process 3 and one to
    /// process 4 at start; a receiver records its senders in receipt
    /// order, so every within-destination order is a distinct state.
    #[derive(Clone, Debug, Default)]
    struct Recorder {
        heard: Vec<u32>,
    }

    impl McHash for Recorder {
        fn mc_hash(&self, state: &mut dyn Hasher) {
            for from in &self.heard {
                state.write_u32(*from);
            }
            state.write_usize(self.heard.len());
        }
    }

    impl ExecProtocol for Recorder {
        type Msg = Token;

        fn on_start<X: Exec<Msg = Token>>(&mut self, ctx: &mut X) {
            if ctx.me().0 < 3 {
                ctx.send(ProcessId(3), Token);
                ctx.send(ProcessId(4), Token);
            }
        }

        fn on_message<X: Exec<Msg = Token>>(&mut self, from: ProcessId, _msg: Token, _ctx: &mut X) {
            self.heard.push(from.0);
        }
    }

    #[test]
    fn every_order_within_a_destination_is_a_branch() {
        // Round 1 delivers three messages to each of processes 3 and 4:
        // 3! × 3! = 36 receipt orders, each a state of its own, and each
        // settles in round 2. `Full` reaches the same 36 by 6! = 720
        // permutations of the whole due set.
        let walk = |ordering| {
            let s = Explorer::<Recorder>::new(McConfig {
                max_rounds: 4,
                ordering,
                ..McConfig::default()
            })
            .explore(&SimConfig::default(), |config| {
                Engine::new(config, vec![Recorder::default(); 5])
            })
            .stats;
            (s.states, s.transitions, s.quiescent_leaves)
        };
        assert_eq!(walk(OrderingMode::Fixed), (3, 3, 1));
        assert_eq!(walk(OrderingMode::PerDestination), (38, 73, 36));
        assert_eq!(walk(OrderingMode::Full), (38, 757, 36));
    }

    #[test]
    fn buggy_flood_yields_replayable_counterexample() {
        let explorer = Explorer::new(McConfig {
            max_rounds: 6,
            ..McConfig::default()
        })
        .with_invariant(BoundedDeliveries);
        let report = explorer.explore(&SimConfig::default(), flood_engine(3, true));
        let ce = report.violation.expect("buggy flood must be caught");
        assert_eq!(ce.invariant, "bounded-deliveries");
        assert!(
            ce.fifo_replayable,
            "the rebroadcast loop does not depend on ordering: {ce:?}"
        );
        assert!(!ce.trace.is_empty(), "replay carries its trace stream");
        // And the scripted replay is an ordinary FaultConfig.
        let faults = ce.to_fault_config(&FaultConfig::default());
        assert!(matches!(faults.failure, FailureModel::Schedule(_)));
    }

    #[test]
    fn drop_budget_finds_lost_token() {
        // With one allowed drop, some branch kills the only send to a
        // leaf before any rebroadcast reaches it... but the flood
        // re-covers it from other processes, so EveryoneSees still
        // holds. Drop budget >= population-1 can sever a process
        // completely.
        let explorer = Explorer::new(McConfig {
            max_rounds: 8,
            drop_budget: 4,
            ordering: OrderingMode::PerDestination,
            ..McConfig::default()
        })
        .with_invariant(EveryoneSees);
        let report = explorer.explore(&SimConfig::default(), flood_engine(3, false));
        let ce = report.violation.expect("enough drops isolate a process");
        assert_eq!(ce.invariant, "everyone-sees");
        assert!(!ce.drops.is_empty());
        assert!(ce.fifo_replayable, "drops replay as scripted FaultConfig");
    }

    #[test]
    fn crash_budget_explores_crash_points() {
        // Crashing process 0 before its start hook exists... fates at
        // round 0 crash it before on_start, so the token never exists
        // and quiescence arrives with nobody (but 0) having seen it.
        let explorer = Explorer::new(McConfig {
            max_rounds: 6,
            crash_budget: 1,
            ordering: OrderingMode::Fixed,
            ..McConfig::default()
        })
        .with_invariant(EveryoneSees);
        let report = explorer.explore(&SimConfig::default(), flood_engine(3, false));
        let ce = report.violation.expect("a crash must break convergence");
        assert_eq!(ce.fates.len(), 1);
        assert!(ce.fates[0].crash);
        assert!(ce.fifo_replayable);
    }

    #[test]
    fn dedup_prunes_but_preserves_verdict() {
        let report = Explorer::new(McConfig {
            max_rounds: 5,
            ..McConfig::default()
        })
        .with_invariant(BoundedDeliveries)
        .explore(&SimConfig::default(), flood_engine(3, false));
        assert!(report.verified());
        let s = report.stats;
        assert!(s.dedup_hits > 0, "flood reconverges; dedup must hit");
        // Every transition lands on a new state, on a visited one, or on
        // a quiescent leaf; the root is the one state no transition
        // reaches.
        assert_eq!(
            s.transitions,
            s.states - 1 + s.dedup_hits + s.quiescent_leaves
        );
    }

    #[test]
    fn max_states_cap_truncates() {
        let report = Explorer::new(McConfig {
            max_rounds: 6,
            max_states: 3,
            ..McConfig::default()
        })
        .with_invariant(BoundedDeliveries)
        .explore(&SimConfig::default(), flood_engine(3, false));
        assert!(report.stats.truncated);
        assert!(!report.verified());
    }

    #[test]
    #[should_panic(expected = "choice-free")]
    fn lossy_base_config_is_rejected() {
        use da_core::seed::rng_from_seed;
        use da_core::Latency;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Caught, so that a wrongly rejected channel cannot pass for the
        // rejection this test expects at its end.
        let validate = |base: &SimConfig| {
            catch_unwind(AssertUnwindSafe(|| Explorer::<Flood>::validate_base(base)))
        };

        // Accepted: one fate per send, and the very fate `sample_fate`
        // draws from any stream, so the certain fate covers every sample.
        let black_hole = ChannelConfig::reliable().with_success_probability(0.0);
        for channel in [
            ChannelConfig::reliable(),
            ChannelConfig::reliable().with_latency(Latency::Fixed(0)),
            ChannelConfig::reliable().with_latency(Latency::Fixed(3)),
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 2, max: 2 }),
            black_hole,
            black_hole.with_latency(Latency::UniformRounds { min: 1, max: 3 }),
        ] {
            let accepted = validate(&SimConfig::default().with_channel(channel));
            assert!(accepted.is_ok(), "{channel:?} has one fate");
            let fate = certain_fate(channel).expect("an accepted channel has one fate");
            for seed in 0..64 {
                assert_eq!(
                    channel.sample_fate(&mut rng_from_seed(seed)),
                    fate,
                    "{channel:?}"
                );
            }
        }

        // Rejected: a jittery channel.
        let jittery =
            ChannelConfig::reliable().with_latency(Latency::UniformRounds { min: 1, max: 3 });
        let panic = validate(&SimConfig::default().with_channel(jittery))
            .expect_err("a channel with a choice is rejected");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("choice-free"), "{message}");

        // A lossy channel, through `explore` itself.
        let base = SimConfig::default().with_channel(ChannelConfig::paper_default());
        let _ = Explorer::new(McConfig::default())
            .with_invariant(BoundedDeliveries)
            .explore(&base, flood_engine(3, false));
    }
}
