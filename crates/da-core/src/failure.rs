//! Failure models — shared by both execution substrates.
//!
//! The paper evaluates two regimes (Sec. VII):
//!
//! * **stillborn** (Figs. 8–10): "the state of a process (alive/failed) is
//!   set at the beginning of the simulation and does not change" — a fixed
//!   fraction of processes is crashed before round 0;
//! * **per-observer** (Fig. 11): "a process can appear to be failed for a
//!   process while appearing alive for another one (to simulate a weakly
//!   consistent membership algorithm)" — aliveness is sampled
//!   independently per transmission, so failures are uncorrelated across
//!   observers.
//!
//! [`FailureModel`] is the declarative description; [`FailurePlan`] is its
//! materialisation for one seeded run. Like `crate::channel`, the module
//! sits below both substrates: a [`crate::LifecycleController`] applies
//! the plan at the start of every round — one over the whole population
//! under `da_simnet::Engine`, one per worker stripe under `da_runtime`.
//! To that end every per-round draw is **positionally deterministic**:
//! churn transitions are sampled from stateless hashes, never from a
//! shared sequential RNG stream, so the fate of process 7 at round 12 is
//! the same number on a single-threaded simulator and on any worker
//! striping of the live pool. Crashes are drawn per 64-pid block (one
//! mask per `(block, round)`, keyed by a hash whose first round is the
//! block's alone, with more hashes only for the rare block that holds a
//! crash) and recoveries per `(pid, round)`; [`FailurePlan::churn_flips`]
//! reads either for one process. A substrate therefore pays for a churn
//! tick in blocks and crashed processes, not in population, and a stripe
//! that keeps its blocks' first rounds pays one round per block.
//!
//! The draw order within [`FailureModel::materialize`] is pinned:
//! stillborn selection draws the crashed set (one draw per crashed
//! process) on the dedicated `0xFA11` stream, per-observer sampling owns the `0x0B5E` stream, and
//! churn hangs off the `0xC402` stream family — recoveries draw on
//! `0xC402` itself, crash masks on `0xC402_0000_0000_B10C` — changing
//! any of these silently re-rolls committed experiment numbers.

use crate::process::ProcessId;
use crate::seed::{derive_seed, keep_random, rng_from_seed};
use rand::Rng;
use std::ops::RangeInclusive;

/// Seed stream tag of the stillborn crashed-set draw.
const STILLBORN_STREAM: u64 = 0xFA11;
/// Seed stream tag of per-observer aliveness sampling.
const OBSERVER_STREAM: u64 = 0x0B5E;
/// Seed stream tag rooting the per-`(pid, round)` recovery draws.
const CHURN_STREAM: u64 = 0xC402;
/// Seed stream tag rooting the per-`(block, round)` crash masks.
const CRASH_STREAM: u64 = 0xC402_0000_0000_B10C;

/// A scripted liveness transition used by [`FailureModel::Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fate {
    /// Round at the start of which the transition applies.
    pub round: u64,
    /// The affected process.
    pub pid: ProcessId,
    /// `true` = crash, `false` = recover.
    pub crash: bool,
}

/// Declarative failure model of a run (simulated or live).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum FailureModel {
    /// All processes stay alive for the whole run.
    #[default]
    None,
    /// A uniformly random `1 - alive_fraction` of the population is crashed
    /// before round 0 and never recovers (paper Figs. 8–10).
    Stillborn {
        /// Fraction of processes that remain alive, in `[0, 1]`.
        alive_fraction: f64,
    },
    /// Every transmission independently observes its target as failed with
    /// probability `1 - alive_fraction` (paper Fig. 11). No process is
    /// globally crashed.
    PerObserver {
        /// Per-observation probability that the target appears alive.
        alive_fraction: f64,
    },
    /// Scripted crash/recovery events, applied at the start of their
    /// round. Fates naming processes outside the materialised population
    /// are dropped at [`FailureModel::materialize`] time, so both
    /// substrates see the identical (valid) schedule.
    Schedule(Vec<Fate>),
    /// Continuous churn (the paper's model assumption: "processes might
    /// crash and recover", Sec. III-A): at the start of every round each
    /// alive process crashes with `crash_probability` and each crashed
    /// process recovers with `recover_probability`. The stationary alive
    /// fraction is `recover / (crash + recover)`.
    Churn {
        /// Per-round probability that an alive process crashes.
        crash_probability: f64,
        /// Per-round probability that a crashed process recovers.
        recover_probability: f64,
    },
}

impl FailureModel {
    /// Materialises the model for a run over `population` processes,
    /// deriving all randomness from `seed`.
    #[must_use]
    pub fn materialize(&self, population: usize, seed: u64) -> FailurePlan {
        let base = FailurePlan {
            initially_crashed: Vec::new(),
            observer_alive_probability: None,
            schedule: Vec::new(),
            churn: None,
            crashes: None,
            recover_below: 0,
            observation_seed: seed,
            churn_seed: derive_seed(seed, CHURN_STREAM),
        };
        match self {
            FailureModel::None => base,
            FailureModel::Stillborn { alive_fraction } => {
                let alive_fraction = alive_fraction.clamp(0.0, 1.0);
                let mut rng = rng_from_seed(derive_seed(seed, STILLBORN_STREAM));
                let mut ids: Vec<ProcessId> = (0..population).map(ProcessId::from_index).collect();
                // Round half-up so alive_fraction=1.0 keeps everyone alive
                // and 0.0 crashes everyone.
                let crashed = population - (alive_fraction * population as f64).round() as usize;
                keep_random(&mut ids, crashed, &mut rng);
                FailurePlan {
                    initially_crashed: ids,
                    ..base
                }
            }
            FailureModel::PerObserver { alive_fraction } => FailurePlan {
                observer_alive_probability: Some(alive_fraction.clamp(0.0, 1.0)),
                observation_seed: derive_seed(seed, OBSERVER_STREAM),
                ..base
            },
            FailureModel::Schedule(fates) => {
                let mut schedule = fates.clone();
                // Out-of-range fates are dropped here, once, so the
                // simulator and the runtime cannot diverge on them.
                schedule.retain(|f| f.pid.index() < population);
                schedule.sort_by_key(|f| (f.round, f.pid));
                FailurePlan { schedule, ..base }
            }
            FailureModel::Churn {
                crash_probability,
                recover_probability,
            } => {
                let crash = crash_probability.clamp(0.0, 1.0);
                let recover = recover_probability.clamp(0.0, 1.0);
                FailurePlan {
                    churn: Some(ChurnRates { crash, recover }),
                    crashes: (crash > 0.0)
                        .then(|| Box::new(CrashMasks::new(derive_seed(seed, CRASH_STREAM), crash))),
                    // Exact: `recover · 2^53` only rescales the double.
                    recover_below: (recover * UNIT).ceil() as u64,
                    ..base
                }
            }
        }
    }
}

/// The churn model's crash draws, one 64-bit mask per `(block, round)`
/// (see `FailurePlan::crash_mask`).
#[derive(Debug, Clone)]
struct CrashMasks {
    /// Roots every `(block, round)` key.
    seed: u64,
    /// `cdf[j] = ⌊(1 − (1 − p)^(j+1)) · 2^53⌋`: a uniform 53-bit draw
    /// `u` is below `cdf[j]` exactly when a run of Bernoulli(`p`) trials
    /// has its first success at index `j` or earlier, so
    /// `#{j : cdf[j] ≤ u}` is that index, truncated at 64. Rounding
    /// costs at most `2^-53` per entry.
    cdf: [u64; 64],
}

impl CrashMasks {
    fn new(seed: u64, p: f64) -> Self {
        let log_miss = (-p).ln_1p();
        let cdf = std::array::from_fn(|j| {
            let hit = -((j + 1) as f64 * log_miss).exp_m1();
            (hit * UNIT) as u64
        });
        CrashMasks { seed, cdf }
    }

    /// The first round of every `(block, round)` key of `block`: what a
    /// stripe's key column holds ([`FailurePlan::crash_keys`]).
    #[inline]
    fn block_key(&self, block: u64) -> u64 {
        derive_seed(self.seed, block)
    }

    /// The mask of the block keyed `block_key` at `round`.
    #[inline]
    fn draw_keyed(&self, block_key: u64, round: u64) -> u64 {
        let key = derive_seed(block_key, round);
        if key >> 11 >= self.cdf[63] {
            return 0;
        }
        self.hit_mask(key)
    }

    /// The mask of a block whose round key is `key`, once its first
    /// word `key >> 11` is known to fall below `cdf[63]`: someone in the
    /// block crashes.
    fn hit_mask(&self, key: u64) -> u64 {
        let mut u = key >> 11;
        let (mut mask, mut at, mut gaps) = (0u64, 0usize, 0u64);
        loop {
            // `at` is the first bit not yet drawn; the gap to the next
            // crash is geometric over the `64 - at` bits left.
            let left = 64 - at;
            let gap = self.cdf[..left].partition_point(|&t| t <= u);
            if gap == left {
                return mask;
            }
            at += gap;
            mask |= 1 << at;
            at += 1;
            if at == 64 {
                return mask;
            }
            u = derive_seed(key, gaps) >> 11;
            gaps += 1;
        }
    }
}

/// Per-round crash/recovery probabilities of the churn model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRates {
    /// Per-round crash probability of alive processes.
    pub crash: f64,
    /// Per-round recovery probability of crashed processes.
    pub recover: f64,
}

/// The outcome of one process's plan transitions for one round — what
/// [`FailurePlan::transition`] reports back to the substrate applying
/// the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Liveness entering the rest of the round, after scripted fates
    /// and the churn draw.
    pub alive: bool,
    /// True when the process came back this round and stayed up — the
    /// substrate must run its `on_recover` re-entry hook.
    pub recovered: bool,
    /// True when the churn draw crashed the process (scripted fates are
    /// not counted — mirrors the `churn_crashes` counters).
    pub churn_crashed: bool,
    /// True when the churn draw recovered the process.
    pub churn_recovered: bool,
}

impl Transition {
    /// One process's round: its scripted `fates` first (in schedule
    /// order), then the churn draw — `flips(alive)` answers whether
    /// churn flips it, given its liveness after the fates. The step
    /// [`FailurePlan::transition`] and
    /// [`crate::LifecycleController::begin_tick`] both take.
    #[inline]
    pub(crate) fn apply(fates: &[Fate], mut alive: bool, flips: impl FnOnce(bool) -> bool) -> Self {
        let mut came_back = false;
        for fate in fates {
            if !fate.crash && !alive {
                came_back = true;
            }
            alive = !fate.crash;
        }
        let mut churn_crashed = false;
        let mut churn_recovered = false;
        if flips(alive) {
            if alive {
                churn_crashed = true;
            } else {
                churn_recovered = true;
                came_back = true;
            }
            alive = !alive;
        }
        Transition {
            alive,
            // A process only re-enters (runs `on_recover`) when some
            // transition brought it back AND it is still up once every
            // transition of the round has applied.
            recovered: came_back && alive,
            churn_crashed,
            churn_recovered,
        }
    }
}

/// A materialised failure plan for one seeded run. Produced by
/// [`FailureModel::materialize`]; applied by a
/// [`crate::LifecycleController`] on either substrate.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    initially_crashed: Vec<ProcessId>,
    observer_alive_probability: Option<f64>,
    schedule: Vec<Fate>,
    churn: Option<ChurnRates>,
    /// `None` when nothing ever crashes by churn.
    crashes: Option<Box<CrashMasks>>,
    /// A crashed process recovers by churn when the top 53 bits of its
    /// draw fall below `⌈recover · 2^53⌉`: exactly when the draw as a
    /// unit `f64` falls below `recover` (0 without churn, 2^53 at
    /// `recover = 1`).
    recover_below: u64,
    observation_seed: u64,
    churn_seed: u64,
}

impl FailurePlan {
    /// Processes crashed before round 0.
    #[must_use]
    pub fn initially_crashed(&self) -> &[ProcessId] {
        &self.initially_crashed
    }

    /// True when `pid` is crashed before round 0 (stillborn).
    #[must_use]
    pub fn is_initially_crashed(&self, pid: ProcessId) -> bool {
        self.initially_crashed.contains(&pid)
    }

    /// True when the plan can never change anyone's liveness nor drop an
    /// observation — the [`FailureModel::None`] materialisation. Lets a
    /// substrate skip all per-round lifecycle work.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.initially_crashed.is_empty()
            && self.observer_alive_probability.is_none()
            && self.schedule.is_empty()
            && self.churn.is_none()
    }

    /// The churn rates, when the model is [`FailureModel::Churn`].
    #[must_use]
    pub fn churn(&self) -> Option<ChurnRates> {
        self.churn
    }

    /// Scripted transitions applying at the start of `round`, sorted by
    /// pid — a slice of the schedule, found by binary search.
    #[must_use]
    pub fn fates_at(&self, round: u64) -> &[Fate] {
        let start = self.schedule.partition_point(|f| f.round < round);
        let len = self.schedule[start..].partition_point(|f| f.round == round);
        &self.schedule[start..start + len]
    }

    /// Inserts one scripted fate into an already-materialized plan,
    /// keeping the schedule sorted by `(round, pid)` — the order
    /// [`FailureModel::Schedule`] materializes in, so a plan grown fate
    /// by fate is indistinguishable from one scripted up front.
    ///
    /// This is the model checker's crash/recover injection point: the
    /// explorer pushes a fate for the *next* round, steps the engine,
    /// and the fate applies through the exact same code path a replayed
    /// `FailureModel::Schedule` would use. Callers are responsible for
    /// only naming pids inside the population, as
    /// [`FailureModel::materialize`] enforces for up-front schedules.
    pub fn push_fate(&mut self, fate: Fate) {
        let at = self
            .schedule
            .partition_point(|f| (f.round, f.pid) <= (fate.round, fate.pid));
        self.schedule.insert(at, fate);
    }

    /// The full scripted schedule, sorted by `(round, pid)`.
    #[must_use]
    pub fn schedule(&self) -> &[Fate] {
        &self.schedule
    }

    /// Whether the churn model flips the liveness of `pid` at the start
    /// of `round`, given the process is currently `alive`.
    ///
    /// An alive process reads its bit of its 64-pid block's crash mask
    /// (one draw per `(block, round)`); a crashed one draws its own
    /// stateless hash of `(churn seed, pid, round)`. Neither is a shared
    /// RNG stream, so **both substrates agree on every fate** regardless
    /// of execution order or worker striping — the lifecycle analogue of
    /// `crate::channel::EdgeRngs`. Given the same [`FailurePlan`] and the
    /// same starting status, a process's entire liveness trajectory is
    /// therefore identical on the simulator and on any live worker pool:
    ///
    /// ```
    /// use da_core::failure::FailureModel;
    /// use da_core::ProcessId;
    ///
    /// let plan = FailureModel::Churn {
    ///     crash_probability: 0.5,
    ///     recover_probability: 0.5,
    /// }
    /// .materialize(8, 42);
    /// let walk = |pid| -> Vec<bool> {
    ///     let mut alive = true;
    ///     (0..16)
    ///         .map(|round| {
    ///             if plan.churn_flips(pid, round, alive) {
    ///                 alive = !alive;
    ///             }
    ///             alive
    ///         })
    ///         .collect()
    /// };
    /// assert_eq!(walk(ProcessId(3)), walk(ProcessId(3)), "replay agrees");
    /// assert_ne!(walk(ProcessId(3)), walk(ProcessId(4)), "streams differ");
    /// ```
    #[must_use]
    #[inline]
    pub fn churn_flips(&self, pid: ProcessId, round: u64, alive: bool) -> bool {
        if self.churn.is_none() {
            return false;
        }
        if alive {
            let mask = self.crash_mask(u64::from(pid.0 / 64), round);
            return (mask >> (pid.0 % 64)) & 1 == 1;
        }
        self.recovers(self.recovery_key(pid), round)
    }

    /// The per-pid half of `pid`'s recovery key: a crashed process's
    /// recovery draw at `round` is one more round over it
    /// ([`recovers`](Self::recovers)). A substrate that keeps it while
    /// the process is down pays one round per crashed process and tick.
    #[inline]
    pub(crate) fn recovery_key(&self, pid: ProcessId) -> u64 {
        derive_seed(self.churn_seed, u64::from(pid.0))
    }

    /// Whether the crashed process with recovery key `key`
    /// ([`recovery_key`](Self::recovery_key)) recovers by churn at the
    /// start of `round`.
    #[inline]
    pub(crate) fn recovers(&self, key: u64, round: u64) -> bool {
        derive_seed(key, round) >> 11 < self.recover_below
    }

    /// The churn crash draws of pids `64·block .. 64·block + 64` at the
    /// start of `round`: bit `i` is set when pid `64·block + i` crashes
    /// if it is alive. Every bit is an independent Bernoulli draw at the
    /// crash probability, and the mask is a pure function of
    /// `(crash seed, block, round)`.
    ///
    /// One hash decides the first crash of the block, as a geometric
    /// index through a table of integer thresholds built at
    /// materialisation; at the metropolis rate of 0.02% that hash alone
    /// answers "nobody" for 98.7% of blocks. Each later crash costs one
    /// more hash, drawing the gap to the next the same way over the bits
    /// left. The draw itself uses neither floats nor logarithms.
    ///
    /// This is the per-block reference. A stripe pays the key's first
    /// round once, in its column ([`crash_keys`](Self::crash_keys)), and
    /// draws only the blocks its candidate pass
    /// ([`crash_hits`](Self::crash_hits)) keeps: the same bits.
    #[inline]
    fn crash_mask(&self, block: u64, round: u64) -> u64 {
        self.crashes.as_ref().map_or(0, |crashes| {
            crashes.draw_keyed(crashes.block_key(block), round)
        })
    }

    /// The key column of the blocks `blocks`: the first round of every
    /// `(block, round)` crash key, which no round changes. Empty when
    /// churn never crashes anyone.
    pub(crate) fn crash_keys(&self, blocks: RangeInclusive<u64>) -> Vec<u64> {
        self.crashes.as_ref().map_or_else(Vec::new, |crashes| {
            blocks.map(|block| crashes.block_key(block)).collect()
        })
    }

    /// The candidate pass: writes to `hits`, ascending, every block of
    /// the column `keys` (whose first entry is block `first_block`) with
    /// a non-empty [`crash_mask`](Self::crash_mask) at `round`, and that
    /// mask.
    ///
    /// One loop pays one round per block and keeps the blocks whose
    /// first word falls below `cdf[63]` ("someone here crashes"), which
    /// at the metropolis rate is 1.3% of them. It holds no branch but
    /// that rare hit, so consecutive blocks' rounds overlap. Only the
    /// kept blocks then draw the rest of their masks, from the round key
    /// the loop handed on.
    pub(crate) fn crash_hits(
        &self,
        keys: &[u64],
        first_block: u64,
        round: u64,
        hits: &mut Vec<(u64, u64)>,
    ) {
        hits.clear();
        let Some(crashes) = &self.crashes else {
            return;
        };
        let below = crashes.cdf[63];
        for (block, &key) in (first_block..).zip(keys) {
            let key = derive_seed(key, round);
            if key >> 11 < below {
                hits.push((block, key));
            }
        }
        for (_, key) in hits.iter_mut() {
            *key = crashes.hit_mask(*key);
        }
    }

    /// True when the plan can ever change a process's liveness after
    /// round 0 — i.e. it carries scripted fates or churn. Lets a
    /// substrate skip the per-round transition scan entirely.
    #[must_use]
    pub fn has_transitions(&self) -> bool {
        !self.schedule.is_empty() || self.churn.is_some()
    }

    /// Applies one round's worth of plan transitions to `pid`: scripted
    /// fates first (in schedule order), then the churn draw — and
    /// reports everything a substrate needs to act on them.
    ///
    /// This is the reference step, and the [`FailurePlan::alive_at`]
    /// replay consumes it. Both substrates take the same step
    /// through [`crate::LifecycleController::begin_tick`], which reads
    /// the same draws from a walk over a whole stripe, so they cannot
    /// drift apart. Its result is the round's *net* transition: a
    /// process crashed and recovered in one round never goes down, and
    /// re-enters once.
    #[must_use]
    #[inline]
    pub fn transition(&self, pid: ProcessId, round: u64, alive: bool) -> Transition {
        let from = &self.schedule[self
            .schedule
            .partition_point(|f| (f.round, f.pid) < (round, pid))..];
        let mine = &from[..from.partition_point(|f| (f.round, f.pid) == (round, pid))];
        Transition::apply(mine, alive, |alive| self.churn_flips(pid, round, alive))
    }

    /// Applies one round's worth of plan transitions to `pid` and
    /// returns only the resulting liveness — [`FailurePlan::transition`]
    /// without the bookkeeping.
    #[must_use]
    pub fn step_alive(&self, pid: ProcessId, round: u64, alive: bool) -> bool {
        self.transition(pid, round, alive).alive
    }

    /// Whether `pid` is alive during `round`, i.e. after the plan's
    /// transitions for rounds `0..=round` have applied — an exact replay
    /// of the trajectory either substrate executes, usable to pick
    /// publishers that are up at their publish tick without running
    /// anything.
    #[must_use]
    pub fn alive_at(&self, pid: ProcessId, round: u64) -> bool {
        let mut alive = !self.is_initially_crashed(pid);
        for r in 0..=round {
            alive = self.step_alive(pid, r, alive);
        }
        alive
    }

    /// Samples whether one particular transmission observes its target as
    /// alive. Deterministic in `(seed, sequence)` so replays agree.
    #[must_use]
    pub fn observes_alive<R: Rng>(&self, rng: &mut R) -> bool {
        match self.observer_alive_probability {
            None => true,
            Some(p) => rng.gen_bool(p),
        }
    }

    /// Seed reserved for observation sampling.
    #[must_use]
    pub fn observation_seed(&self) -> u64 {
        self.observation_seed
    }
}

/// `2^53`: a draw's top 53 bits (the full mantissa width) as a unit
/// fraction are `(x >> 11) / UNIT`.
const UNIT: f64 = (1u64 << 53) as f64;

/// Maps a 64-bit hash to a uniform `f64` in `[0, 1)` using the top 53
/// bits: the recovery draw in floats, which
/// [`FailurePlan::recovers`] takes in integers.
#[cfg(test)]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / UNIT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_crashes_nobody() {
        let plan = FailureModel::None.materialize(100, 1);
        assert!(plan.initially_crashed().is_empty());
        assert_eq!(plan.observer_alive_probability, None);
        assert!(plan.is_inert());
    }

    #[test]
    fn stillborn_crashes_expected_count() {
        let plan = FailureModel::Stillborn {
            alive_fraction: 0.7,
        }
        .materialize(1000, 1);
        assert_eq!(plan.initially_crashed().len(), 300);
        assert!(!plan.is_inert());
        let a_crashed = plan.initially_crashed()[0];
        assert!(plan.is_initially_crashed(a_crashed));
    }

    #[test]
    fn stillborn_extremes() {
        let all_alive = FailureModel::Stillborn {
            alive_fraction: 1.0,
        }
        .materialize(50, 9);
        assert!(all_alive.initially_crashed().is_empty());
        let all_dead = FailureModel::Stillborn {
            alive_fraction: 0.0,
        }
        .materialize(50, 9);
        assert_eq!(all_dead.initially_crashed().len(), 50);
    }

    #[test]
    fn stillborn_is_seed_deterministic() {
        let m = FailureModel::Stillborn {
            alive_fraction: 0.5,
        };
        let a = m.materialize(100, 7);
        let b = m.materialize(100, 7);
        assert_eq!(a.initially_crashed(), b.initially_crashed());
        let c = m.materialize(100, 8);
        assert_ne!(a.initially_crashed(), c.initially_crashed());
    }

    #[test]
    fn per_observer_samples_with_probability() {
        let plan = FailureModel::PerObserver {
            alive_fraction: 0.5,
        }
        .materialize(10, 3);
        let mut rng = rng_from_seed(plan.observation_seed());
        let alive = (0..10_000)
            .filter(|_| plan.observes_alive(&mut rng))
            .count();
        assert!((4_500..5_500).contains(&alive), "got {alive}");
    }

    #[test]
    fn per_observer_one_always_observes_alive() {
        let plan = FailureModel::PerObserver {
            alive_fraction: 1.0,
        }
        .materialize(10, 3);
        let mut rng = rng_from_seed(0);
        assert!((0..100).all(|_| plan.observes_alive(&mut rng)));
    }

    #[test]
    fn schedule_sorted_and_filtered() {
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: true,
            },
            Fate {
                round: 2,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 5,
                pid: ProcessId(0),
                crash: false,
            },
        ])
        .materialize(10, 0);
        assert_eq!(plan.fates_at(2).len(), 1);
        assert_eq!(plan.fates_at(5).len(), 2);
        assert_eq!(plan.fates_at(9).len(), 0);
    }

    #[test]
    fn push_fate_matches_upfront_schedule() {
        // A plan grown fate-by-fate must be indistinguishable from one
        // scripted up front: same sort, same fates_at answers.
        let fates = [
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: true,
            },
            Fate {
                round: 2,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 5,
                pid: ProcessId(0),
                crash: false,
            },
        ];
        let upfront = FailureModel::Schedule(fates.to_vec()).materialize(10, 0);
        let mut grown = FailureModel::None.materialize(10, 0);
        for fate in fates {
            grown.push_fate(fate);
        }
        assert_eq!(grown.schedule(), upfront.schedule());
        assert!(!grown.is_inert(), "a pushed fate makes the plan active");
    }

    #[test]
    fn clamps_out_of_range_fractions() {
        let plan = FailureModel::Stillborn {
            alive_fraction: 2.0,
        }
        .materialize(10, 0);
        assert!(plan.initially_crashed().is_empty());
        let plan = FailureModel::PerObserver {
            alive_fraction: -1.0,
        }
        .materialize(10, 0);
        assert_eq!(plan.observer_alive_probability, Some(0.0));
    }

    #[test]
    fn unit_f64_stays_in_range() {
        for x in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let u = unit_f64(x);
            assert!((0.0..1.0).contains(&u), "{x} mapped to {u}");
        }
        assert!(unit_f64(u64::MAX) > 0.999);
        // The recovery draw compares integers: the same verdict as the
        // float rule on either side of every threshold.
        for recover in [0.0, 1e-17, 0.05, 0.3, 0.999_999_999, 1.0] {
            let plan = FailureModel::Churn {
                crash_probability: 0.0,
                recover_probability: recover,
            }
            .materialize(1, 0);
            let below = plan.recover_below;
            for top in [
                0,
                1,
                below.saturating_sub(1),
                below,
                below + 1,
                (1 << 53) - 1,
            ] {
                let top = top.min((1 << 53) - 1);
                for x in [top << 11, top << 11 | 0x7FF] {
                    let int = x >> 11 < below;
                    assert_eq!(int, unit_f64(x) < recover, "{recover}: {x:#x}");
                }
            }
        }
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;

    #[test]
    fn churn_materialises_rates() {
        let plan = FailureModel::Churn {
            crash_probability: 0.1,
            recover_probability: 0.4,
        }
        .materialize(10, 1);
        let rates = plan.churn().expect("churn rates present");
        assert!((rates.crash - 0.1).abs() < 1e-12);
        assert!((rates.recover - 0.4).abs() < 1e-12);
        assert!(plan.initially_crashed().is_empty());
    }

    #[test]
    fn churn_rates_clamped() {
        let plan = FailureModel::Churn {
            crash_probability: 2.0,
            recover_probability: -1.0,
        }
        .materialize(10, 1);
        let rates = plan.churn().unwrap();
        assert_eq!(rates.crash, 1.0);
        assert_eq!(rates.recover, 0.0);
        // A crash rate of 1 fills every mask; a recovery rate of 0 skips
        // the hash entirely.
        assert!(plan.churn_flips(ProcessId(0), 0, true), "crash p = 1");
        assert!(!plan.churn_flips(ProcessId(0), 0, false), "recover p = 0");
    }

    #[test]
    fn non_churn_models_have_no_rates() {
        assert!(FailureModel::None.materialize(5, 0).churn().is_none());
        assert!(FailureModel::Stillborn {
            alive_fraction: 0.5
        }
        .materialize(5, 0)
        .churn()
        .is_none());
        assert!(!FailureModel::None
            .materialize(5, 0)
            .churn_flips(ProcessId(0), 3, true));
    }

    #[test]
    fn churn_draws_hit_the_configured_rate() {
        let plan = FailureModel::Churn {
            crash_probability: 0.3,
            recover_probability: 0.7,
        }
        .materialize(100, 5);
        let crashes = (0..100u32)
            .flat_map(|p| (0..100u64).map(move |r| (p, r)))
            .filter(|&(p, r)| plan.churn_flips(ProcessId(p), r, true))
            .count();
        assert!(
            (2_700..3_300).contains(&crashes),
            "crash draws {crashes}/10000, expected ≈ 3000"
        );
        let recoveries = (0..100u32)
            .flat_map(|p| (0..100u64).map(move |r| (p, r)))
            .filter(|&(p, r)| plan.churn_flips(ProcessId(p), r, false))
            .count();
        assert!(
            (6_700..7_300).contains(&recoveries),
            "recovery draws {recoveries}/10000, expected ≈ 7000"
        );
    }

    #[test]
    fn crash_masks_are_exact_bernoulli() {
        // 2,097,152 (block, round) pairs per rate: every bit position
        // (an off-by-one at either end of the geometric skip shows at
        // bit 0 or bit 63), adjacent pairs (independence) and the
        // popcount's variance (no clumping across the block).
        let (blocks, rounds) = (2_048u64, 1_024u64);
        let n = (blocks * rounds) as f64;
        for p in [0.002, 0.05, 0.3] {
            let plan = FailureModel::Churn {
                crash_probability: p,
                recover_probability: 0.5,
            }
            .materialize(64 * blocks as usize, 3);
            let mut at = [0u64; 64];
            let (mut pairs, mut sum, mut sum_sq) = (0u64, 0u64, 0u64);
            for block in 0..blocks {
                for round in 0..rounds {
                    let mask = plan.crash_mask(block, round);
                    let mut bits = mask;
                    while bits != 0 {
                        at[bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                    pairs += u64::from((mask & (mask >> 1)).count_ones());
                    let k = u64::from(mask.count_ones());
                    sum += k;
                    sum_sq += k * k;
                }
            }
            let q = 1.0 - p;
            for (bit, &hits) in at.iter().enumerate() {
                let z = (hits as f64 - n * p) / (n * p * q).sqrt();
                assert!(z.abs() <= 4.0, "p = {p}: bit {bit} at z = {z:.2}");
            }
            // 63 pair indicators per mask; neighbours share a bit.
            let pair_var = 63.0 * p * p * (1.0 - p * p) + 124.0 * (p.powi(3) - p.powi(4));
            let z = (pairs as f64 - n * 63.0 * p * p) / (n * pair_var).sqrt();
            assert!(z.abs() <= 4.0, "p = {p}: adjacent pairs at z = {z:.2}");
            let var = 64.0 * p * q;
            let fourth = var * (1.0 + 3.0 * 62.0 * p * q);
            let mean = sum as f64 / n;
            let sample_var = sum_sq as f64 / n - mean * mean;
            let z = (sample_var - var) / ((fourth - var * var) / n).sqrt();
            assert!(
                z.abs() <= 3.0,
                "p = {p}: popcount variance {sample_var:.4} vs {var:.4}"
            );
            // `churn_flips` on an alive pid reads its bit of the mask.
            for pid in 0..256u32 {
                let mask = plan.crash_mask(u64::from(pid / 64), 9);
                let bit = (mask >> (pid % 64)) & 1 == 1;
                assert_eq!(plan.churn_flips(ProcessId(pid), 9, true), bit, "p{pid}");
            }
        }
        for (p, full) in [(0.0, 0), (1.0, u64::MAX)] {
            let plan = FailureModel::Churn {
                crash_probability: p,
                recover_probability: 0.5,
            }
            .materialize(64, 3);
            assert!((0..64).all(|round| plan.crash_mask(round % 3, round) == full));
        }
    }

    #[test]
    fn the_candidate_pass_keeps_exactly_the_blocks_with_a_crash() {
        // Spans whose first block is 0–3, of stripes 1–4 pids apart: the
        // column plus the candidate pass must give every block's
        // reference mask, and leave out exactly the empty ones.
        let mut hits = Vec::new();
        for p in [0.0002, 0.3, 1.0] {
            let plan = FailureModel::Churn {
                crash_probability: p,
                recover_probability: 0.5,
            }
            .materialize(1 << 12, 17);
            for offset in 0..4u64 {
                for stride in 1..=4u64 {
                    let worker = 65 * offset;
                    let (first, last) = (worker / 64, (worker + 299 * stride) / 64);
                    let keys = plan.crash_keys(first..=last);
                    assert_eq!(keys.len() as u64, last - first + 1);
                    for round in 0..64 {
                        plan.crash_hits(&keys, first, round, &mut hits);
                        let mut kept = hits.iter().peekable();
                        for block in first..=last {
                            let got = kept.next_if(|hit| hit.0 == block).map_or(0, |hit| hit.1);
                            let want = plan.crash_mask(block, round);
                            assert_eq!(got, want, "p = {p}, block {block} of {first}..={last}");
                        }
                        assert_eq!(kept.next(), None, "a kept block outside the span");
                    }
                }
            }
        }
        // A plan that never crashes anyone has no column and keeps nothing.
        let plan = FailureModel::Churn {
            crash_probability: 0.0,
            recover_probability: 0.5,
        }
        .materialize(1 << 12, 17);
        assert!(plan.crash_keys(0..=63).is_empty());
        plan.crash_hits(&[1, 2, 3], 0, 9, &mut hits);
        assert!(hits.is_empty());
    }

    #[test]
    fn out_of_range_fates_are_dropped_at_materialisation() {
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 1,
                pid: ProcessId(10), // beyond the population of 10
                crash: true,
            },
            Fate {
                round: 1,
                pid: ProcessId(9),
                crash: true,
            },
        ])
        .materialize(10, 0);
        assert_eq!(plan.fates_at(1).len(), 1, "only the valid fate kept");
        assert!(!plan.step_alive(ProcessId(9), 1, true));
    }

    #[test]
    fn transition_reports_recovery_only_when_still_alive() {
        // Crash at 1, recover at 3: the recovery round reports it.
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 1,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 3,
                pid: ProcessId(0),
                crash: false,
            },
            // Same-round recover-then-crash: no re-entry.
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: false,
            },
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: true,
            },
        ])
        .materialize(2, 0);
        assert!(!plan.transition(ProcessId(0), 1, true).alive);
        let back = plan.transition(ProcessId(0), 3, false);
        assert!(back.alive && back.recovered);
        assert!(!back.churn_crashed && !back.churn_recovered);
        // Recovering an alive process is not a re-entry.
        assert!(!plan.transition(ProcessId(0), 3, true).recovered);
        // p1 was crashed entering round 5, flickers up, ends crashed.
        let flicker = plan.transition(ProcessId(1), 5, false);
        assert!(!flicker.alive && !flicker.recovered);
        assert!(plan.has_transitions());
        assert!(!FailureModel::None.materialize(2, 0).has_transitions());
    }

    #[test]
    fn step_alive_and_alive_at_replay_mixed_plans() {
        // A scripted crash and recovery walk through step_alive exactly
        // as through fates_at application.
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 1,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 4,
                pid: ProcessId(0),
                crash: false,
            },
        ])
        .materialize(2, 0);
        assert!(plan.alive_at(ProcessId(0), 0));
        assert!(!plan.alive_at(ProcessId(0), 1));
        assert!(!plan.alive_at(ProcessId(0), 3));
        assert!(plan.alive_at(ProcessId(0), 4));
        assert!(plan.alive_at(ProcessId(1), 3), "untouched pid stays up");

        // Under churn, folding step_alive equals the direct per-round
        // walk over churn_flips.
        let churny = FailureModel::Churn {
            crash_probability: 0.4,
            recover_probability: 0.4,
        }
        .materialize(4, 21);
        for pid in (0..4).map(ProcessId) {
            let mut alive = true;
            for round in 0..30 {
                if churny.churn_flips(pid, round, alive) {
                    alive = !alive;
                }
                assert_eq!(churny.alive_at(pid, round), alive, "{pid} round {round}");
            }
        }
    }

    #[test]
    fn churn_draws_are_positionally_deterministic() {
        // The same (seed, pid, round) triple yields the same draw from
        // two independently materialised plans — the property the live
        // runtime's stripe independence rests on.
        let a = FailureModel::Churn {
            crash_probability: 0.5,
            recover_probability: 0.5,
        }
        .materialize(10, 77);
        let b = FailureModel::Churn {
            crash_probability: 0.5,
            recover_probability: 0.5,
        }
        .materialize(10, 77);
        for pid in 0..10u32 {
            for round in 0..50u64 {
                assert_eq!(
                    a.churn_flips(ProcessId(pid), round, true),
                    b.churn_flips(ProcessId(pid), round, true)
                );
            }
        }
        // A different master seed re-rolls the draws.
        let c = FailureModel::Churn {
            crash_probability: 0.5,
            recover_probability: 0.5,
        }
        .materialize(10, 78);
        let agree = (0..10u32)
            .flat_map(|p| (0..50u64).map(move |r| (p, r)))
            .filter(|&(p, r)| {
                a.churn_flips(ProcessId(p), r, true) == c.churn_flips(ProcessId(p), r, true)
            })
            .count();
        assert!(agree < 500, "seeds 77 and 78 must not share all draws");
    }
}
