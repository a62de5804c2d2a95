//! Who is alive: a [`LifecycleController`] applies the shared
//! [`FailurePlan`] to one stripe of processes — the whole population on
//! the simulator, `pid ≡ worker mod stride` on a live worker.
//!
//! The controller is deliberately dumb: all randomness lives in the
//! plan, whose churn draws are stateless `(pid, round)` hashes
//! ([`FailurePlan::churn_flips`]). Each stripe therefore advances the
//! liveness of its own processes without coordination, and the resulting
//! fates are **identical** on the single-stripe simulator and on any
//! worker striping of the live pool — the lifecycle analogue of the
//! transport's per-edge channel streams.

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
    #[must_use]
    pub fn new(plan: Arc<FailurePlan>, worker: usize, stride: usize, owned: usize) -> Self {
        let stride = stride.max(1);
        // One pass over the plan's crashed list (not one scan per owned
        // process): flip exactly the stillborn pids of this stripe.
        let mut status = vec![ProcessStatus::Alive; owned];
        for pid in plan.initially_crashed() {
            let idx = pid.index();
            if idx % stride == worker {
                let slot = (idx - worker) / stride;
                if slot < owned {
                    status[slot] = ProcessStatus::Crashed;
                }
            }
        }
        let observer_seed = derive_seed(
            plan.observation_seed(),
            WORKER_OBSERVER_STREAM + worker as u64,
        );
        LifecycleController {
            plan,
            status,
            observer_rng: rng_from_seed(observer_seed),
            worker: u32::try_from(worker).expect("a stripe starts inside the pid space"),
            stride: u32::try_from(stride).expect("a stride fits the pid space"),
        }
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
        ProcessId::from_index(self.worker as usize + slot * self.stride as usize)
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

    /// Number of currently alive processes in the stripe.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.status.iter().filter(|s| s.is_alive()).count()
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
    pub fn begin_tick(&mut self, tick: u64) -> LifecycleTransitions {
        let mut out = LifecycleTransitions::default();
        if !self.plan.has_transitions() {
            return out;
        }
        // This loop runs once per owned process per tick — the single
        // hottest lifecycle path of either substrate. Hoist the `Arc` deref
        // out of the loop, and keep the no-schedule common case (churn
        // or nothing) to a bare draw-and-compare per process with every
        // piece of bookkeeping behind the rarely-taken flip branch.
        // Semantically this is exactly `FailurePlan::transition` with an
        // empty schedule — `churn_fates_are_stripe_independent` below
        // and the cross-substrate parity suites pin the equivalence.
        let plan = &*self.plan;
        let (worker, stride) = (self.worker as usize, self.stride as usize);
        if plan.schedule().is_empty() {
            for (slot, status) in self.status.iter_mut().enumerate() {
                let alive = status.is_alive();
                let pid = ProcessId::from_index(worker + slot * stride);
                if plan.churn_flips(pid, tick, alive) {
                    if alive {
                        *status = ProcessStatus::Crashed;
                        out.churn_crashes += 1;
                        out.crashed.push(slot);
                    } else {
                        *status = ProcessStatus::Alive;
                        out.churn_recoveries += 1;
                        out.recovered.push(slot);
                    }
                }
            }
            return out;
        }
        for (slot, status) in self.status.iter_mut().enumerate() {
            let was_alive = status.is_alive();
            let pid = ProcessId::from_index(worker + slot * stride);
            let t = plan.transition(pid, tick, was_alive);
            if t.alive != was_alive {
                *status = if t.alive {
                    ProcessStatus::Alive
                } else {
                    ProcessStatus::Crashed
                };
            }
            out.churn_crashes += u64::from(t.churn_crashed);
            out.churn_recoveries += u64::from(t.churn_recovered);
            if t.recovered {
                out.recovered.push(slot);
            }
            if was_alive && !t.alive {
                out.crashed.push(slot);
            }
        }
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
        let model = FailureModel::Churn {
            crash_probability: 0.3,
            recover_probability: 0.3,
        };
        let p = plan(model, 12, 99);
        let trajectory = |workers: usize| -> Vec<Vec<bool>> {
            let mut controllers: Vec<LifecycleController> = (0..workers)
                .map(|w| {
                    let owned = (12 - w).div_ceil(workers);
                    LifecycleController::new(Arc::clone(&p), w, workers, owned)
                })
                .collect();
            (0..20u64)
                .map(|tick| {
                    for lc in &mut controllers {
                        lc.begin_tick(tick);
                    }
                    (0..12)
                        .map(|pid| {
                            let w = pid % workers;
                            controllers[w].is_alive((pid - w) / workers)
                        })
                        .collect()
                })
                .collect()
        };
        let single = trajectory(1);
        assert_eq!(single, trajectory(3));
        assert_eq!(single, trajectory(5));
        // The run actually saw transitions.
        assert!(single.iter().any(|row| row.iter().any(|a| !a)));
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
