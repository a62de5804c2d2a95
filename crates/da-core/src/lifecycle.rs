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
//! What a tick costs. Only a crashed slot, a slot named by one of the
//! tick's scripted fates or a set bit of a crash mask can change state,
//! and all three come in slot order, so
//! [`LifecycleController::begin_tick`] merges them in one pass. The
//! crash masks cost two SplitMix rounds per 64 pids of the stripe's
//! span, whether anyone changes or not. A crashed process costs one
//! round: the controller keeps the per-pid half of its recovery key from
//! the moment it went down. Once the buffers have grown, a tick
//! allocates nothing. At `metro_churn`'s 131,072 pids and rates (~520
//! crashed, ~52 transitions a tick) that is ~4,100 + ~520 rounds, and
//! the walk takes 13.2–14.0 µs a tick (best of 5 × 20,000 ticks on a
//! 2-vCPU Xeon guest). The walk it replaced took 19.5–23.1 µs there. It
//! paid two rounds per crashed process, a stable sort of the crashed
//! list and about 8 allocations a tick.

use crate::failure::{FailurePlan, Fate, Transition};
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
    /// these feed the ledger's `churn_crashes`).
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

/// What a tick that can change nobody changed.
static NO_TRANSITIONS: LifecycleTransitions = LifecycleTransitions {
    churn_crashes: 0,
    churn_recoveries: 0,
    recovered: Vec::new(),
    crashed: Vec::new(),
};

/// A crashed slot and the per-pid half of its recovery key, derived
/// once, when the slot went down.
#[derive(Debug, Clone, Copy)]
struct Down {
    slot: u32,
    key: u64,
}

/// What [`LifecycleController::begin_tick`] writes: the last tick's
/// transitions and the buffer its walk merges the survivors into. Both
/// keep their capacity from tick to tick.
#[derive(Debug, Clone, Default)]
struct TickBuffers {
    out: LifecycleTransitions,
    next: Vec<Down>,
}

/// The slot of pid `index` in the stripe of `owned` processes
/// `worker + slot * stride`, when the stripe holds it.
fn slot_in(index: usize, worker: u32, stride: u32, owned: usize) -> Option<u32> {
    let offset = index.checked_sub(worker as usize)?;
    let slot = offset / stride as usize;
    (offset % stride as usize == 0 && slot < owned).then_some(slot as u32)
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
/// assert_eq!(lc.begin_tick(5).recovered, [1], "the owner must run p1's on_recover");
/// assert!(lc.is_alive(1));
/// ```
#[derive(Debug, Clone)]
pub struct LifecycleController {
    plan: Arc<FailurePlan>,
    /// Liveness of each owned process, indexed by local stripe slot
    /// (`pid = worker + slot * stride`).
    status: Vec<ProcessStatus>,
    /// The slots whose status is `Crashed`, ascending, each with the
    /// per-pid half of its recovery key.
    down: Vec<Down>,
    /// Allocated by the first tick that can change anyone, so that a
    /// controller under an inert plan stays one pointer larger.
    buffers: Option<Box<TickBuffers>>,
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
            down: Vec::new(),
            buffers: None,
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
            .filter_map(|pid| slot_in(pid.index(), lc.worker, lc.stride, owned))
            .collect();
        stillborn.sort_unstable();
        for &slot in &stillborn {
            lc.status[slot as usize] = ProcessStatus::Crashed;
        }
        lc.down = stillborn
            .into_iter()
            .map(|slot| Down {
                slot,
                key: lc.plan.recovery_key(lc.pid_of(slot as usize)),
            })
            .collect();
        lc
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
        self.status.len() - self.down.len()
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
    /// stripe and reports what changed.
    ///
    /// A slot can change only if it is crashed, named by one of the
    /// tick's scripted fates, or drawn by its block's crash mask. All
    /// three come in slot order, and one merge visits their union once
    /// each, taking the step [`FailurePlan::transition`] takes on the
    /// same draws: a tick hashes each 64-pid block the stripe spans
    /// once, and each crashed process with one round over the recovery
    /// key it kept. The slots still down after the walk become the
    /// crashed list; nothing is allocated once the buffers have grown.
    pub fn begin_tick(&mut self, tick: u64) -> &LifecycleTransitions {
        if !self.plan.has_transitions() || self.status.is_empty() {
            return &NO_TRANSITIONS;
        }
        let plan = &*self.plan;
        let (worker, stride, owned) = (self.worker, self.stride, self.status.len());
        let own =
            |pid: u32| slot_in(pid as usize, worker, stride, owned).map_or(u64::MAX, u64::from);
        let buffers = self.buffers.get_or_insert_with(Box::default);
        let TickBuffers { out, next } = &mut **buffers;
        out.churn_crashes = 0;
        out.churn_recoveries = 0;
        out.recovered.clear();
        out.crashed.clear();
        next.clear();

        // The crash-mask candidates, ascending; `u64::MAX` past the last.
        let last_block = (worker + (owned as u32 - 1) * stride) / 64;
        let (mut block, mut mask) = (worker / 64, 0u64);
        let mut next_drawn = || loop {
            while mask == 0 {
                if block > last_block {
                    return u64::MAX;
                }
                mask = plan.crash_mask(u64::from(block), tick);
                block += 1;
            }
            let pid = (block - 1) * 64 + mask.trailing_zeros();
            mask &= mask - 1;
            let slot = own(pid);
            if slot != u64::MAX {
                return slot;
            }
        };
        // The tick's scripted fates of this stripe, in pid order.
        let fates = plan.fates_at(tick);
        let mut fate = 0;
        let next_fated = |fate: &mut usize| {
            while let Some(f) = fates.get(*fate) {
                let slot = own(f.pid.0);
                if slot != u64::MAX {
                    return slot;
                }
                *fate += 1;
            }
            u64::MAX
        };

        let mut downs = self.down.iter().peekable();
        let mut drawn = next_drawn();
        let mut fated = next_fated(&mut fate);
        loop {
            let downed = downs.peek().map_or(u64::MAX, |d| u64::from(d.slot));
            let slot = downed.min(drawn).min(fated);
            if slot == u64::MAX {
                break;
            }
            let pid = ProcessId(worker + slot as u32 * stride);
            let mut key = downs.next_if(|d| u64::from(d.slot) == slot).map(|d| d.key);
            let was_down = key.is_some();
            let in_mask = drawn == slot;
            if in_mask {
                drawn = next_drawn();
            }
            let mine = if fated == slot {
                let first = fate;
                while fates.get(fate).is_some_and(|f| f.pid == pid) {
                    fate += 1;
                }
                let mine = &fates[first..fate];
                fated = next_fated(&mut fate);
                mine
            } else {
                &[]
            };
            let t = Transition::apply(mine, !was_down, |alive| {
                if alive {
                    in_mask
                } else {
                    plan.recovers(*key.get_or_insert_with(|| plan.recovery_key(pid)), tick)
                }
            });
            out.churn_crashes += u64::from(t.churn_crashed);
            out.churn_recoveries += u64::from(t.churn_recovered);
            if t.recovered {
                out.recovered.push(slot as usize);
            }
            if t.alive {
                self.status[slot as usize] = ProcessStatus::Alive;
            } else {
                if !was_down {
                    out.crashed.push(slot as usize);
                }
                self.status[slot as usize] = ProcessStatus::Crashed;
                next.push(Down {
                    slot: slot as u32,
                    key: key.unwrap_or_else(|| plan.recovery_key(pid)),
                });
            }
        }
        std::mem::swap(&mut self.down, next);
        out
    }

    /// What the last [`begin_tick`](Self::begin_tick) changed.
    pub(crate) fn transitions(&self) -> &LifecycleTransitions {
        self.buffers.as_ref().map_or(&NO_TRANSITIONS, |b| &b.out)
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
