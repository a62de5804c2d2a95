//! Who is alive: a [`LifecycleController`] applies the shared
//! [`FailurePlan`] to one stripe of processes — the whole population on
//! the simulator, `pid ≡ worker mod stride` on a live worker.
//!
//! The controller is deliberately dumb: all randomness lives in the
//! plan, whose churn draws are stateless hashes — per `(block, round)`
//! for crashes ([`FailurePlan::crash_mask`]), per `(pid, round)` for
//! recoveries ([`FailurePlan::churn_flips`]). Each stripe therefore
//! advances the liveness of its own processes without coordination, and
//! the resulting fates are **identical** on the single-stripe simulator
//! and on any worker striping of the live pool — the lifecycle analogue
//! of the transport's per-edge channel streams.
//!
//! A tick costs what it changes, not what exists: the controller keeps
//! its crashed slots in a sorted list, and only those, the tick's
//! scripted fates and the set bits of the crash masks can change state.
//! [`LifecycleController::begin_tick`] visits that union and nothing
//! else — one hash per 64 pids plus one per crashed process.

use crate::failure::{FailurePlan, Fate};
use crate::process::{ProcessId, ProcessStatus};
use crate::seed::{derive_seed, rng_from_seed};
use rand::rngs::SmallRng;
use std::sync::Arc;

/// Seed stream tag of the per-stripe observer streams, derived from the
/// plan's observation seed.
const WORKER_OBSERVER_STREAM: u64 = 0x0B5E_0000_0000_0100;

/// What one [`LifecycleController::begin_tick`] changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleTransitions {
    /// Churn-driven crashes this tick (scripted fates are not counted:
    /// these feed the `churn_crashes` counters).
    pub churn_crashes: u64,
    /// Churn-driven recoveries this tick.
    pub churn_recoveries: u64,
    /// Local (stripe) indices of every process that came back this tick
    /// — scripted or churn-driven — and is still alive after all
    /// transitions applied. Their `on_recover` hooks run next.
    pub recovered: Vec<usize>,
    /// Local (stripe) indices of every process that went down this tick
    /// — scripted or churn-driven — and stayed down: the flight
    /// recorder's `Crashed` lifecycle events.
    pub crashed: Vec<usize>,
}

/// Applies a [`FailurePlan`] to one stripe of processes.
///
/// Owned by whoever owns the processes: stillborn fates apply at
/// construction (a stillborn process never runs `on_start`), and
/// [`LifecycleController::begin_tick`] advances scripted fates and
/// churn draws at the start of every tick, before any delivery.
///
/// ```
/// use da_core::failure::{Fate, FailureModel};
/// use da_core::{LifecycleController, ProcessId};
/// use std::sync::Arc;
///
/// // p1 crashes at tick 2 and recovers at tick 5.
/// let plan = Arc::new(
///     FailureModel::Schedule(vec![
///         Fate { round: 2, pid: ProcessId(1), crash: true },
///         Fate { round: 5, pid: ProcessId(1), crash: false },
///     ])
///     .materialize(2, 42),
/// );
/// // One worker owning the whole population (stride 1).
/// let mut lc = LifecycleController::new(plan, 0, 1, 2);
/// assert!(lc.is_alive(1));
/// lc.begin_tick(2);
/// assert!(!lc.is_alive(1), "scripted crash applied");
/// lc.begin_tick(3);
/// lc.begin_tick(4);
/// let t = lc.begin_tick(5);
/// assert!(lc.is_alive(1));
/// assert_eq!(t.recovered, vec![1], "the owner must run p1's on_recover");
/// ```
#[derive(Debug, Clone)]
pub struct LifecycleController {
    plan: Arc<FailurePlan>,
    /// Liveness of each owned process, indexed by local stripe slot
    /// (`pid = worker + slot * stride`).
    status: Vec<ProcessStatus>,
    /// The slots whose status is `Crashed`, ascending.
    crashed: Vec<u32>,
    /// Observation stream of the per-observer model (never drawn from
    /// under any other model).
    observer_rng: SmallRng,
    worker: u32,
    stride: u32,
}

impl LifecycleController {
    /// Builds the controller for the worker owning processes
    /// `worker + i * stride` for `i < owned`, applying the plan's
    /// stillborn fates immediately. Observations draw on a stream of the
    /// worker's own.
    ///
    /// # Panics
    ///
    /// Panics when a pid of the stripe exceeds `u32::MAX`.
    #[must_use]
    pub fn new(plan: Arc<FailurePlan>, worker: usize, stride: usize, owned: usize) -> Self {
        let stride = stride.max(1);
        // Checked once here, so that `pid_of` is plain `u32` arithmetic.
        let last = owned
            .saturating_sub(1)
            .saturating_mul(stride)
            .saturating_add(worker);
        if let Err(overflow) = ProcessId::try_from_index(last) {
            panic!("stripe {worker} of {stride}: {overflow}");
        }
        let observer_seed = derive_seed(
            plan.observation_seed(),
            WORKER_OBSERVER_STREAM + worker as u64,
        );
        let mut lc = LifecycleController {
            plan,
            status: vec![ProcessStatus::Alive; owned],
            crashed: Vec::new(),
            observer_rng: rng_from_seed(observer_seed),
            worker: worker as u32,
            stride: stride as u32,
        };
        // One pass over the plan's crashed list (not one scan per owned
        // process): flip exactly the stillborn pids of this stripe.
        let mut stillborn: Vec<u32> = lc
            .plan
            .initially_crashed()
            .iter()
            .filter_map(|pid| lc.own(pid.index()))
            .collect();
        stillborn.sort_unstable();
        for &slot in &stillborn {
            lc.status[slot as usize] = ProcessStatus::Crashed;
        }
        lc.crashed = stillborn;
        lc
    }

    /// The slot of pid `index` when this stripe owns it.
    fn own(&self, index: usize) -> Option<u32> {
        let offset = index.checked_sub(self.worker as usize)?;
        let slot = offset / self.stride as usize;
        (offset % self.stride as usize == 0 && slot < self.status.len()).then_some(slot as u32)
    }

    /// The plan this controller applies.
    #[must_use]
    pub fn plan(&self) -> &FailurePlan {
        &self.plan
    }

    /// Adds one scripted fate to the plan ([`FailurePlan::push_fate`]);
    /// a plan shared with other controllers is copied first.
    pub fn push_fate(&mut self, fate: Fate) {
        Arc::make_mut(&mut self.plan).push_fate(fate);
    }

    /// The observation stream at its current position.
    #[must_use]
    pub fn observer_rng(&self) -> &SmallRng {
        &self.observer_rng
    }

    /// Number of processes in the stripe.
    #[must_use]
    pub fn owned(&self) -> usize {
        self.status.len()
    }

    /// The process at local stripe slot `slot`.
    #[must_use]
    #[inline]
    pub fn pid_of(&self, slot: usize) -> ProcessId {
        debug_assert!(slot < self.status.len(), "slot {slot} out of the stripe");
        ProcessId(self.worker + slot as u32 * self.stride)
    }

    /// The local stripe slot of `pid`, which this stripe must own.
    #[must_use]
    #[inline]
    pub fn slot_of(&self, pid: ProcessId) -> usize {
        debug_assert_eq!(pid.0 % self.stride, self.worker, "misrouted {pid}");
        // In `u32`: a 32-bit divide on every delivery, not a 64-bit one.
        ((pid.0 - self.worker) / self.stride) as usize
    }

    /// Liveness of the process at local stripe slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range for the stripe.
    #[must_use]
    #[inline]
    pub fn is_alive(&self, slot: usize) -> bool {
        self.status[slot].is_alive()
    }

    /// Status of the process at local stripe slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range for the stripe.
    #[must_use]
    pub fn status(&self, slot: usize) -> ProcessStatus {
        self.status[slot]
    }

    /// Every status of the stripe, in slot order.
    pub(crate) fn statuses(&self) -> &[ProcessStatus] {
        &self.status
    }

    /// Consumes the controller, returning every status in slot order.
    #[must_use]
    pub fn into_statuses(self) -> Vec<ProcessStatus> {
        self.status
    }

    /// Number of currently alive processes in the stripe.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.status.len() - self.crashed.len()
    }

    /// True when the plan can never change anyone's liveness — the
    /// whole controller is then a no-op its owner can skip thinking
    /// about.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.plan.is_inert()
    }

    /// Samples whether one particular transmission observes its target
    /// as alive — the per-observer model (paper Fig. 11), drawn on this
    /// controller's observation stream. Always `true`, and draw-free,
    /// outside `FailureModel::PerObserver`.
    ///
    /// Per-observer failures are *per transmission by definition*
    /// (independent Bernoulli draws, uncorrelated across observers), so
    /// a per-worker stream reproduces the model exactly. The simulator's
    /// single stripe draws on worker 0's stream, so it and a one-worker
    /// pool observe the same failures.
    #[must_use]
    #[inline]
    pub fn observes_alive(&mut self) -> bool {
        self.plan.observes_alive(&mut self.observer_rng)
    }

    /// Applies the transitions due at the start of `tick` to the owned
    /// stripe — via the shared authoritative [`FailurePlan::transition`]
    /// step — and reports what changed.
    ///
    /// A slot can change only if it is crashed, named by one of the
    /// tick's scripted fates, or drawn by its block's crash mask. The
    /// walk visits exactly those, once each and in slot order: a tick
    /// hashes each 64-pid block the stripe spans once and each crashed
    /// process once, and skips everyone else.
    pub fn begin_tick(&mut self, tick: u64) -> LifecycleTransitions {
        let mut out = LifecycleTransitions::default();
        if !self.plan.has_transitions() || self.status.is_empty() {
            return out;
        }
        let plan = &*self.plan;
        // The candidates join the sorted crashed slots at the back.
        let before = self.crashed.len();
        for fate in plan.fates_at(tick) {
            if let Some(slot) = self.own(fate.pid.index()) {
                self.crashed.push(slot);
            }
        }
        let last = self.pid_of(self.status.len() - 1).0;
        for block in self.worker / 64..=last / 64 {
            let mut mask = plan.crash_mask(u64::from(block), tick);
            while mask != 0 {
                let pid = block * 64 + mask.trailing_zeros();
                mask &= mask - 1;
                if let Some(slot) = self.own(pid as usize) {
                    self.crashed.push(slot);
                }
            }
        }
        if self.crashed.len() > before {
            // Three ascending runs at most: the stable sort merges them
            // in linear time.
            self.crashed.sort();
            self.crashed.dedup();
        }
        // Walk them, keeping the ones still down in place.
        let mut kept = 0;
        for i in 0..self.crashed.len() {
            let slot = self.crashed[i] as usize;
            let was_alive = self.status[slot].is_alive();
            let t = plan.transition(self.pid_of(slot), tick, was_alive);
            out.churn_crashes += u64::from(t.churn_crashed);
            out.churn_recoveries += u64::from(t.churn_recovered);
            if t.recovered {
                out.recovered.push(slot);
            }
            if t.alive {
                self.status[slot] = ProcessStatus::Alive;
            } else {
                if was_alive {
                    out.crashed.push(slot);
                }
                self.status[slot] = ProcessStatus::Crashed;
                self.crashed[kept] = slot as u32;
                kept += 1;
            }
        }
        self.crashed.truncate(kept);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{FailureModel, Fate};

    fn plan(model: FailureModel, population: usize, seed: u64) -> Arc<FailurePlan> {
        Arc::new(model.materialize(population, seed))
    }

    #[test]
    fn stillborn_applies_at_construction() {
        let p = plan(
            FailureModel::Stillborn {
                alive_fraction: 0.5,
            },
            10,
            3,
        );
        // Two workers, stride 2: the stripes' dead counts sum to the
        // plan's.
        let lc0 = LifecycleController::new(Arc::clone(&p), 0, 2, 5);
        let lc1 = LifecycleController::new(Arc::clone(&p), 1, 2, 5);
        let dead = (5 - lc0.alive_count()) + (5 - lc1.alive_count());
        assert_eq!(dead, p.initially_crashed().len());
        assert_eq!(dead, 5);
    }

    #[test]
    fn scheduled_fates_route_to_the_owning_stripe() {
        let p = plan(
            FailureModel::Schedule(vec![
                Fate {
                    round: 1,
                    pid: ProcessId(3),
                    crash: true,
                },
                Fate {
                    round: 1,
                    pid: ProcessId(4),
                    crash: true,
                },
            ]),
            6,
            0,
        );
        let mut lc0 = LifecycleController::new(Arc::clone(&p), 0, 2, 3); // pids 0,2,4
        let mut lc1 = LifecycleController::new(Arc::clone(&p), 1, 2, 3); // pids 1,3,5
        lc0.begin_tick(1);
        lc1.begin_tick(1);
        assert!(!lc0.is_alive(2), "pid 4 crashed on worker 0");
        assert!(!lc1.is_alive(1), "pid 3 crashed on worker 1");
        assert!(lc0.is_alive(0) && lc0.is_alive(1));
        assert!(lc1.is_alive(0) && lc1.is_alive(2));
    }

    #[test]
    fn churn_fates_are_stripe_independent() {
        // The full liveness trajectory over any striping equals the
        // single-stripe (simulator-shaped) trajectory.
        // single-stripe (simulator-shaped) trajectory, and both equal the
        // per-pid `FailurePlan::transition` walk: the sparse walk skips
        // only slots that cannot change.
        const TICKS: u64 = 40;
        // Per tick: liveness by pid, the crashed and the recovered pids,
        // and the churn crash and recovery counts.
        type Tick = (Vec<bool>, Vec<u32>, Vec<u32>, u64, u64);
        let churn = |crash, recover| FailureModel::Churn {
            crash_probability: crash,
            recover_probability: recover,
        };
        let mut seen = (0, 0, 0, 0);
        for population in [1usize, 63, 64, 65, 200] {
            let n = population as u64;
            // Same-tick duplicates and flickers included.
            let script: Vec<Fate> = (0..3 * n)
                .map(|i| {
                    let h = derive_seed(n, i);
                    Fate {
                        round: h % TICKS,
                        pid: ProcessId(((h >> 8) % n) as u32),
                        crash: (h >> 40) & 1 == 0,
                    }
                })
                .collect();
            let mut churn_and_fates = churn(0.05, 0.2).materialize(population, 5);
            let mut stillborn_and_fates = FailureModel::Stillborn {
                alive_fraction: 0.7,
            }
            .materialize(population, 4);
            for (i, &fate) in script.iter().enumerate() {
                match i % 3 {
                    0 => churn_and_fates.push_fate(fate),
                    1 => stillborn_and_fates.push_fate(fate),
                    _ => {}
                }
            }
            let plans = [
                churn(0.02, 0.3).materialize(population, 99),
                churn(0.3, 0.3).materialize(population, 98),
                FailureModel::Schedule(script).materialize(population, 0),
                churn_and_fates,
                stillborn_and_fates,
            ];
            for p in plans.map(Arc::new) {
                let mut alive: Vec<bool> = (0..population)
                    .map(|i| !p.is_initially_crashed(ProcessId::from_index(i)))
                    .collect();
                let reference: Vec<Tick> = (0..TICKS)
                    .map(|tick| {
                        let mut row = Tick::default();
                        for (i, up) in alive.iter_mut().enumerate() {
                            let pid = ProcessId::from_index(i);
                            let t = p.transition(pid, tick, *up);
                            if *up && !t.alive {
                                row.1.push(pid.0);
                            }
                            if t.recovered {
                                row.2.push(pid.0);
                            }
                            row.3 += u64::from(t.churn_crashed);
                            row.4 += u64::from(t.churn_recovered);
                            *up = t.alive;
                            assert_eq!(p.alive_at(pid, tick), t.alive, "{pid} at {tick}");
                        }
                        row.0 = alive.clone();
                        seen.0 += row.1.len();
                        seen.1 += row.2.len();
                        seen.2 += row.3;
                        seen.3 += row.4;
                        row
                    })
                    .collect();
                for workers in 1..=5 {
                    let mut controllers: Vec<LifecycleController> = (0..workers)
                        .map(|w| {
                            let owned = population.saturating_sub(w).div_ceil(workers);
                            LifecycleController::new(Arc::clone(&p), w, workers, owned)
                        })
                        .collect();
                    for (tick, expected) in (0..TICKS).zip(&reference) {
                        let mut row: Tick = (vec![false; population], vec![], vec![], 0, 0);
                        for lc in &mut controllers {
                            let t = lc.begin_tick(tick);
                            for slots in [&t.crashed, &t.recovered] {
                                assert!(slots.windows(2).all(|w| w[0] < w[1]), "slot order");
                            }
                            row.1.extend(t.crashed.iter().map(|&s| lc.pid_of(s).0));
                            row.2.extend(t.recovered.iter().map(|&s| lc.pid_of(s).0));
                            row.3 += t.churn_crashes;
                            row.4 += t.churn_recoveries;
                            for slot in 0..lc.owned() {
                                row.0[lc.pid_of(slot).index()] = lc.is_alive(slot);
                            }
                            let up = (0..lc.owned()).filter(|&s| lc.is_alive(s)).count();
                            assert_eq!(lc.alive_count(), up);
                        }
                        row.1.sort_unstable();
                        row.2.sort_unstable();
                        assert_eq!(
                            &row, expected,
                            "n = {population}, {workers} workers, tick {tick}"
                        );
                    }
                }
            }
        }
        // The runs saw every kind of transition.
        assert!(
            seen.0 > 0 && seen.1 > 0 && seen.2 > 0 && seen.3 > 0,
            "{seen:?}"
        );
    }

    #[test]
    fn recovered_slots_reported_once_and_alive() {
        let p = plan(
            FailureModel::Schedule(vec![
                Fate {
                    round: 0,
                    pid: ProcessId(0),
                    crash: true,
                },
                Fate {
                    round: 2,
                    pid: ProcessId(0),
                    crash: false,
                },
                // Recovering an alive process is a no-op, not a re-entry.
                Fate {
                    round: 2,
                    pid: ProcessId(1),
                    crash: false,
                },
            ]),
            2,
            0,
        );
        let mut lc = LifecycleController::new(p, 0, 1, 2);
        let t0 = lc.begin_tick(0);
        assert_eq!(t0.recovered, Vec::<usize>::new());
        assert_eq!(t0.crashed, vec![0], "scripted crash reported");
        let t1 = lc.begin_tick(1);
        assert_eq!(t1.recovered, Vec::<usize>::new());
        assert_eq!(t1.crashed, Vec::<usize>::new(), "no re-report while down");
        let t2 = lc.begin_tick(2);
        assert_eq!(t2.recovered, vec![0]);
        assert_eq!(t2.crashed, Vec::<usize>::new());
    }

    #[test]
    fn observer_sampling_draws_at_the_configured_rate() {
        let p = plan(
            FailureModel::PerObserver {
                alive_fraction: 0.7,
            },
            4,
            9,
        );
        let mut lc0 = LifecycleController::new(Arc::clone(&p), 0, 2, 2);
        let mut lc1 = LifecycleController::new(Arc::clone(&p), 1, 2, 2);
        let alive0 = (0..10_000).filter(|_| lc0.observes_alive()).count();
        let alive1 = (0..10_000).filter(|_| lc1.observes_alive()).count();
        for alive in [alive0, alive1] {
            assert!((6_600..7_400).contains(&alive), "got {alive}/10000");
        }
        // Nobody is actually crashed in this model, and workers draw on
        // independent streams.
        assert_eq!(lc0.alive_count(), 2);
        assert!(!p.is_inert());

        // Outside PerObserver the sampler is a constant true.
        let mut none = LifecycleController::new(plan(FailureModel::None, 4, 9), 0, 1, 4);
        assert!((0..100).all(|_| none.observes_alive()));
    }

    #[test]
    fn inert_plans_are_flagged() {
        let none = LifecycleController::new(plan(FailureModel::None, 4, 0), 0, 1, 4);
        assert!(none.is_inert());
        let churny = LifecycleController::new(
            plan(
                FailureModel::Churn {
                    crash_probability: 0.1,
                    recover_probability: 0.1,
                },
                4,
                0,
            ),
            0,
            1,
            4,
        );
        assert!(!churny.is_inert());
        assert_eq!(churny.status(0), ProcessStatus::Alive);
    }
}
