//! The lifecycle walk is exact: every stripe of a
//! [`LifecycleController`] takes, tick by tick, the per-pid
//! [`FailurePlan::transition`] walk — the same statuses, the same
//! crashed and recovered slots in slot order, the same churn counts —
//! whatever the plan and the striping, and both agree with
//! [`FailurePlan::alive_at`].

use da_core::failure::{FailureModel, FailurePlan, Fate};
use da_core::seed::derive_seed;
use da_core::{LifecycleController, LifecycleTransitions, ProcessId};
use da_tape::{check, prop_assert, prop_assert_eq, CaseError, CaseResult, Tape};
use std::sync::Arc;

/// What the per-pid walk saw over a run: processes that went down,
/// recoveries, churn crashes, churn recoveries.
type Seen = [u64; 4];

/// Walks `plan` over `population` pids for `ticks` ticks, once pid by
/// pid through [`FailurePlan::transition`] and once through `width`
/// stripes, and checks every stripe at every tick against the per-pid
/// walk. `alive_at` is checked for every pid at tick 0, and for each
/// pid at every tick it changes or re-enters.
fn stripes_take_the_per_pid_walk(
    plan: FailurePlan,
    population: usize,
    width: usize,
    ticks: u64,
) -> Result<Seen, CaseError> {
    let plan = Arc::new(plan);
    let mut seen = Seen::default();
    let mut alive: Vec<bool> = (0..population)
        .map(|i| !plan.is_initially_crashed(ProcessId::from_index(i)))
        .collect();
    let mut stripes: Vec<LifecycleController> = (0..width)
        .map(|w| {
            let owned = population.saturating_sub(w).div_ceil(width);
            LifecycleController::new(Arc::clone(&plan), w, width, owned)
        })
        .collect();
    for tick in 0..ticks {
        for (w, lc) in stripes.iter_mut().enumerate() {
            let got = lc.begin_tick(tick).clone();
            let at = || format!("stripe {w} of {width}, {population} pids, tick {tick}");
            let mut want = LifecycleTransitions::default();
            let mut up = 0;
            // Slot `s` of stripe `w` holds pid `w + s · width`.
            for slot in 0..lc.owned() {
                let i = w + slot * width;
                let pid = ProcessId(i as u32);
                let t = plan.transition(pid, tick, alive[i]);
                if tick == 0 || t.alive != alive[i] || t.recovered {
                    prop_assert!(
                        plan.alive_at(pid, tick) == t.alive,
                        "alive_at({pid}, {tick}) disagrees with the walk"
                    );
                }
                prop_assert!(lc.is_alive(slot) == t.alive, "{}: slot {slot}", at());
                if alive[i] && !t.alive {
                    want.crashed.push(slot);
                }
                if t.recovered {
                    want.recovered.push(slot);
                }
                want.churn_crashes += u64::from(t.churn_crashed);
                want.churn_recoveries += u64::from(t.churn_recovered);
                up += usize::from(t.alive);
                alive[i] = t.alive;
            }
            prop_assert_eq!(&got, &want, "{}", at());
            prop_assert_eq!(lc.alive_count(), up, "{}", at());
            seen[0] += want.crashed.len() as u64;
            seen[1] += want.recovered.len() as u64;
            seen[2] += want.churn_crashes;
            seen[3] += want.churn_recoveries;
        }
    }
    Ok(seen)
}

/// A rate with both ends drawn on purpose: 0 and 1 first.
fn rate(t: &mut Tape) -> f64 {
    match t.below(4) {
        0 => 0.0,
        1 => 1.0,
        2 => t.range(0.0..0.1),
        _ => t.range(0.0..1.0),
    }
}

/// A script over `population` pids and `ticks` ticks. A fate may bring
/// a twin on the same pid and tick: a duplicate or the opposite flag (a
/// flicker). Fates land on crashed slots and on slots a crash mask
/// drew wherever the rates put them.
fn script(t: &mut Tape, population: usize, ticks: u64) -> Vec<Fate> {
    let mut fates = Vec::new();
    for _ in 0..t.range(0..=2 * population) {
        let fate = Fate {
            round: t.range(0..ticks),
            pid: ProcessId(t.range(0..population as u32)),
            crash: t.weighted(0.5),
        };
        fates.push(fate);
        if t.weighted(0.3) {
            let crash = if t.weighted(0.5) {
                !fate.crash
            } else {
                fate.crash
            };
            fates.push(Fate { crash, ..fate });
        }
    }
    fates
}

/// The drawn case: population 1..=300, 1..=4 stripes, a plan with or
/// without churn or a stillborn share, and a script on top.
fn lifecycle_matches_transition(t: &mut Tape) -> CaseResult {
    let population = t.range(1..=300usize);
    let width = t.range(1..=4usize);
    let ticks = t.range(1..=40u64);
    let seed = t.range(0..1_000u64);
    let model = match t.below(3) {
        0 => FailureModel::None,
        1 => FailureModel::Churn {
            crash_probability: rate(t),
            recover_probability: rate(t),
        },
        _ => FailureModel::Stillborn {
            alive_fraction: t.range(0.0..=1.0),
        },
    };
    let mut plan = model.materialize(population, seed);
    for fate in script(t, population, ticks) {
        plan.push_fate(fate);
    }
    stripes_take_the_per_pid_walk(plan, population, width, ticks).map(drop)
}

#[test]
fn every_stripe_takes_the_per_pid_transition_walk() {
    check(
        "every_stripe_takes_the_per_pid_transition_walk",
        lifecycle_matches_transition,
    );
}

/// The fixed grid the walk was first held to: five populations around
/// a 64-pid block, five plans (two churn rates, a script alone, churn
/// and stillborn under scripts with same-tick duplicates and flickers),
/// one to five stripes, 40 ticks.
#[test]
fn the_block_edge_grid_takes_the_per_pid_walk() {
    const TICKS: u64 = 40;
    let churn = |crash, recover| FailureModel::Churn {
        crash_probability: crash,
        recover_probability: recover,
    };
    let mut seen = Seen::default();
    for population in [1usize, 63, 64, 65, 200] {
        let n = population as u64;
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
        for plan in plans {
            for width in 1..=5 {
                match stripes_take_the_per_pid_walk(plan.clone(), population, width, TICKS) {
                    Ok(run) => (0..4).for_each(|k| seen[k] += run[k]),
                    Err(failure) => panic!("{failure:?}"),
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every kind of transition: {seen:?}"
    );
}

/// The metropolis rates at the metropolis scale: 131,072 pids on two
/// stripes, 0.02% crash and 5% recover per tick, ~520 down at a time.
#[test]
fn the_metropolis_churn_takes_the_per_pid_walk() {
    let plan = FailureModel::Churn {
        crash_probability: 0.0002,
        recover_probability: 0.05,
    }
    .materialize(131_072, 821);
    let seen = stripes_take_the_per_pid_walk(plan, 131_072, 2, 64).unwrap();
    assert!(seen[2] > 1_000 && seen[3] > 100, "{seen:?}");
}
