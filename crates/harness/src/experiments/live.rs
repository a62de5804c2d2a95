//! Live-vs-sim delivery reliability: the same topology, parameters, and
//! workload executed on both substrates.
//!
//! The paper's evaluation is simulator-only; the live runtime
//! (`da-runtime`) must not change the protocol's observable behaviour.
//! Four experiments check that:
//!
//! * [`run_live_vs_sim`] runs one scenario (typically over perfect
//!   channels) and compares, across seeded trials, the per-level
//!   delivered fraction, the parasite count, and the event-message
//!   volume between `da_simnet::Engine` and `da_runtime::Runtime`;
//! * [`run_reliability_sweep`] repeats the comparison under *lossy*
//!   channels, sweeping the per-link success probability — the paper's
//!   central axis — through the shared `da_core::channel` model that
//!   both substrates consume. Live and simulated delivery ratios must
//!   agree within noise ([`ratios_agree_within_3_sigma`]) at every
//!   swept probability;
//! * [`run_churn_sweep`] does the same over the per-tick churn crash
//!   probability, through the shared `da_core::failure` plan, on a
//!   perfect channel, and insists each pair's delivered sets are
//!   *bit-identical*;
//! * [`run_partition_sweep`] cuts the network in two with a first-class
//!   [`PartitionSchedule`] and sweeps the heal tick, comparing delivery
//!   ratios across cut-and-heal scenarios and insisting the
//!   never-partitioned cohort's delivered sets are *bit-identical*
//!   across substrates from one seed.
//!
//! Every experiment takes one [`ScenarioConfig`] (topology, parameters,
//! and the fault surface both substrates consume) and a seed, and the
//! swept axis is always an override on the scenario's faults. A trial of
//! the comparison table and of the reliability and churn sweeps is one
//! [`run_scenario`] per substrate; a partition trial publishes twice.
//! Every sweep pairs its trials through one loop, `paired_sweep`: trial
//! `t` of row `r` runs both substrates from one seed,
//! `derive_seed(derive_seed(seed, r), t)`.
//!
//! The live substrate is concurrent (per-trial numbers fluctuate with
//! thread interleaving), so the ratio comparisons are statistical:
//! matching means within noise, and an identical hard zero for
//! parasites. The churn and partition pairs also match delivered sets
//! exactly.

use crate::report::Table;
use crate::runner::fold;
use crate::scenario::{run_scenario, run_scenario_keeping, ScenarioConfig};
use crate::stats::Summary;
use crate::substrate::{Driver, Substrate};
use da_core::{
    derive_seed, FailureModel, Family, FaultConfig, Kind, Partition, PartitionSchedule, ProcessId,
    RunConfig,
};
use da_membership::FanoutRule;
use damulticast::{DaProcess, EventId, Network, TopicParams};

/// The partition trial's fixed horizon, in ticks.
const MAX_TIME: u64 = 64;

/// The two substrates every comparison runs, simulator first: the
/// columns `delivery_ratio_sim` / `delivery_ratio_live` of the sweeps.
const SUBSTRATES: [Substrate; 2] = [Substrate::Sim, Substrate::Live { workers: 2 }];

/// Trade-off knobs pinned high — `g`, `a = z`, a `ln S + c` fanout — so
/// gossip is effectively atomic (miss probability ≈ `e^-c` per event)
/// and a cross-substrate comparison is not at the mercy of one seed or
/// one thread interleaving.
#[must_use]
pub fn pinned_params(g: f64, c: f64) -> TopicParams {
    TopicParams::paper_default()
        .with_g(g)
        .with_a(3.0)
        .with_fanout(FanoutRule::LnPlusC { c })
}

/// Sorted delivered-event ids per process — the key delivered-set
/// comparisons across substrates use.
#[must_use]
pub fn delivered_sets(procs: &[DaProcess]) -> Vec<Vec<EventId>> {
    procs
        .iter()
        .map(|p| {
            let mut ids: Vec<EventId> = p.delivered().iter().collect();
            ids.sort();
            ids
        })
        .collect()
}

/// The success probabilities the reliability sweep covers: the perfect
/// corner, two mild-loss points around the paper's 0.85 operating
/// point, and a harsh 20%-loss channel.
pub const RELIABILITY_SWEEP_PROBABILITIES: [f64; 4] = [1.0, 0.95, 0.9, 0.8];

/// The per-tick crash probabilities the churn sweep covers: the
/// no-failure corner, gentle churn, and the harsh rate the acceptance
/// criterion names.
pub const CHURN_SWEEP_CRASH_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// The heal ticks the partition sweep covers: a heal while the
/// mainland event's infect-and-die wave is still in flight (each
/// process disseminates exactly once on first reception, so the wave
/// only lasts a handful of ticks — the island is re-infected on
/// re-merge), a heal long after the wave has died out (the island stays
/// permanently short one event), and a cut that never heals within the
/// horizon. Mid-wave is tick 2 under the default one-tick channel
/// latency; scale it with the latency (e.g. 4 under `Latency::Fixed(2)`).
pub const PARTITION_SWEEP_HEAL_TICKS: [Option<u64>; 3] = [Some(2), Some(24), None];

/// The trial of the reliability and churn sweeps: one [`run_scenario`]
/// of `scenario` with `set(faults, xs[row])` applied, boiled down to the
/// fraction of the full audience that delivered the published event
/// (every process: the topology is a linear inclusion chain, so with a
/// leaf publication every group subscribes at or above its topic), and
/// what `keep` reads off the ended run's processes for the pair to match.
fn audience_trial<W>(
    scenario: &ScenarioConfig,
    xs: &[f64],
    set: impl Fn(&mut FaultConfig, f64),
    keep: impl Fn(&[DaProcess]) -> W,
) -> impl FnMut(usize, Substrate, u64) -> (f64, W) {
    let configs: Vec<ScenarioConfig> = xs
        .iter()
        .map(|&x| {
            let mut config = scenario.clone();
            set(&mut config.faults, x);
            config
        })
        .collect();
    move |row, substrate, seed| {
        let config = &configs[row];
        let (out, kept) = run_scenario_keeping(config, substrate, seed, &keep);
        let population: usize = config.group_sizes.iter().sum();
        let delivered: f64 = config
            .group_sizes
            .iter()
            .zip(&out.delivered_fraction)
            .map(|(&size, fraction)| fraction * size as f64)
            .sum();
        (delivered / population as f64, kept)
    }
}

/// Runs every row of a live-vs-sim sweep `trials` times and tabulates
/// the delivery ratios under `keys`, the simulator's column first. Trial
/// `t` of row `row` runs the simulator and then the pool from one seed,
/// `derive_seed(derive_seed(seed, row), t)`, so whatever the seed draws
/// (a topology, a failure plan) is the same draw on both.
/// `trial(row, substrate, seed)` returns a run's delivery ratio and what
/// the pair must reproduce exactly (`()` when only ratios are compared).
/// Trials run serially for the same oversubscription reason as
/// [`run_live_vs_sim`].
///
/// # Panics
///
/// Panics when a pair differs on what it must reproduce exactly.
fn paired_sweep<W: PartialEq>(
    title: &str,
    key_label: &str,
    keys: &[f64],
    seed: u64,
    trials: usize,
    mut trial: impl FnMut(usize, Substrate, u64) -> (f64, W),
) -> Table<f64> {
    let columns = vec!["delivery_ratio_sim".into(), "delivery_ratio_live".into()];
    let mut table = Table::new(title, key_label, columns);
    for (row, &key) in keys.iter().enumerate() {
        let samples: Vec<Vec<f64>> = (0..trials)
            .map(|t| {
                let trial_seed = derive_seed(derive_seed(seed, row as u64), t as u64);
                let [(sim, sim_exact), (live, live_exact)] =
                    SUBSTRATES.map(|substrate| trial(row, substrate, trial_seed));
                assert!(
                    sim_exact == live_exact,
                    "{key_label} {key}, trial {t}: sim and live differ on what must match"
                );
                vec![sim, live]
            })
            .collect();
        table.push_row(key, fold(&samples));
    }
    table
}

/// Runs `trials` seeded publications of `scenario` on each substrate and
/// tabulates per-level delivered fractions, parasites, and event-message
/// volume.
///
/// Trials run serially: the live runtime is itself a thread pool, and
/// nesting it under the trial fan-out would oversubscribe the host.
#[must_use]
pub fn run_live_vs_sim(scenario: &ScenarioConfig, trials: usize, base_seed: u64) -> Table<String> {
    let levels = scenario.group_sizes.len();
    let mut columns: Vec<String> = (0..levels).map(|i| format!("delivered_t{i}")).collect();
    columns.push("parasites".into());
    columns.push("event_messages".into());
    let mut table = Table::new(
        "Live runtime vs simulator reliability",
        "substrate",
        columns,
    );

    for (key, substrate) in ["simulator", "live runtime"].into_iter().zip(SUBSTRATES) {
        let samples: Vec<Vec<f64>> = (0..trials)
            .map(|t| {
                let out = run_scenario(scenario, substrate, derive_seed(base_seed, t as u64));
                let mut metrics = out.delivered_fraction;
                metrics.extend([out.parasites, out.total_event_messages]);
                metrics
            })
            .collect();
        table.push_row(key, fold(&samples));
    }
    table
}

/// Sweeps the per-link success probability and tabulates the overall
/// delivery ratio on both substrates — the live counterpart of the
/// paper's reliability figures, with the x-axis driven through the
/// shared `da_core::channel` model.
///
/// `scenario` is what every sweep point starts from, and `seed` the root
/// of every trial's; each row overrides only the success probability on
/// the scenario's channel. The channel's latency floor is the live
/// scheduler's drift window: under one-tick latency workers stay within
/// a tick of each other, above it they drift apart during the sweep —
/// the delivery ratios must agree either way.
///
/// Like every sweep here, a trial runs both substrates from one seed
/// (see `paired_sweep`). Only the ratios are compared: the simulator
/// still draws link fates on its engine stream and the pool on keyed
/// per-edge streams, so one seed loses different sends on each.
#[must_use]
pub fn run_reliability_sweep(
    scenario: &ScenarioConfig,
    success_probabilities: &[f64],
    seed: u64,
    trials: usize,
) -> Table<f64> {
    let set = |faults: &mut FaultConfig, p| {
        faults.network.channel = faults.network.channel.with_success_probability(p);
    };
    let trial = audience_trial(scenario, success_probabilities, set, |_| ());
    let title = "Delivery ratio under lossy channels, live vs simulated";
    let xs = success_probabilities;
    paired_sweep(title, "success_probability", xs, seed, trials, trial)
}

/// Sweeps the per-tick churn crash probability and tabulates the
/// overall delivery ratio on both substrates — the dynamic-failure
/// counterpart of [`run_reliability_sweep`], with the x-axis driven
/// through the shared `da_core::failure` model that both substrates
/// consume.
///
/// `scenario` is what every sweep point starts from, and `seed` the root
/// of every trial's; its failure model must be [`FailureModel::Churn`],
/// whose recover probability is shared by every row while the crash
/// probability is overridden per row.
///
/// Within one trial, sim and live share the **same seed** (see
/// `paired_sweep`), hence the same materialised `FailurePlan`: the
/// crash/recovery schedule is fate-matched across substrates. On a
/// channel that draws nothing (the perfect one every caller sweeps
/// over), that leaves the substrates nothing to differ on, so a pair's
/// sorted delivered sets must match exactly, as a partition pair's do.
///
/// # Panics
///
/// Panics when `scenario.faults.failure` is not [`FailureModel::Churn`] —
/// the sweep's x-axis is the churn crash probability, so there is no
/// meaningful way to run it over another failure model — and when a
/// pair's delivered sets differ.
#[must_use]
pub fn run_churn_sweep(
    scenario: &ScenarioConfig,
    crash_rates: &[f64],
    seed: u64,
    trials: usize,
) -> Table<f64> {
    let FailureModel::Churn {
        recover_probability,
        ..
    } = scenario.faults.failure
    else {
        panic!(
            "run_churn_sweep requires a scenario whose failure model is \
             FailureModel::Churn (the recover probability is read from it), got {:?}",
            scenario.faults.failure
        );
    };
    let set = |faults: &mut FaultConfig, crash| {
        faults.failure = FailureModel::Churn {
            crash_probability: crash,
            recover_probability,
        };
    };
    let trial = audience_trial(scenario, crash_rates, set, delivered_sets);
    let title = "Delivery ratio under continuous churn, live vs simulated";
    paired_sweep(title, "crash_probability", crash_rates, seed, trials, trial)
}

/// How many leaf-group members the partition sweep cuts off; everyone
/// else stays on the mainland.
const ISLAND: usize = 8;

/// The tick every partition-sweep cut opens at.
const CUT_AT: u64 = 0;

/// `base` with the given island pids cut off from everyone else from
/// `cut_at`, healing at `heal` (never, if `None`), over the base
/// channel.
#[must_use]
pub fn partition_faults(
    base: &RunConfig,
    island: &[ProcessId],
    cut_at: u64,
    heal: Option<u64>,
) -> RunConfig {
    let mut cut = Partition::cut(island.iter().copied(), cut_at);
    if let Some(tick) = heal {
        cut = cut.heal_at(tick);
    }
    base.clone()
        .with_partitions(PartitionSchedule::none().with_partition(cut))
}

/// One partition trial of `scenario`'s topology, parameters and faults
/// on one substrate, from `seed`. Publishes one event from the mainland
/// at tick 0 and one from the island after the heal (or mid-cut, for a
/// cut that never heals), runs a fixed [`MAX_TIME`] horizon so both
/// substrates see the identical schedule, and returns the overall
/// delivery ratio across both events and the sorted delivered sets of
/// the never-partitioned (mainland) cohort. Asserts that the cut severed
/// a send and that no process delivered a parasite.
fn partition_trial(
    scenario: &ScenarioConfig,
    heal: Option<u64>,
    substrate: Substrate,
    seed: u64,
) -> (f64, Vec<Vec<EventId>>) {
    let net = Network::linear(&scenario.group_sizes, scenario.params, seed)
        .expect("experiment topology must be valid");
    let leaf = net.groups().last().expect("at least one group").clone();
    assert!(
        leaf.members.len() >= 2 * ISLAND,
        "the bottom group must dominate its {ISLAND}-member island"
    );
    let island = leaf.members[leaf.members.len() - ISLAND..].to_vec();
    let mainland_publisher = leaf.members[0];
    let island_publisher = *leaf.members.last().expect("non-empty group");
    let base = RunConfig::default()
        .with_seed(seed)
        .with_faults(scenario.faults.clone());
    let config = partition_faults(&base, &island, CUT_AT, heal);
    // Two ticks after the heal the overlay is reachable again; a cut
    // that never heals publishes mid-cut at the latest heal's slot so
    // the scenarios stay comparable.
    let island_publish_tick = heal.map_or(26, |tick| tick + 2);

    let procs = net.into_processes();
    let mut driver = Driver::spawn(substrate, config, procs);
    driver.apply(mainland_publisher, |p| p.publish("mainland"));
    driver.run_ticks(island_publish_tick);
    driver.apply(island_publisher, |p| p.publish("island"));
    driver.run_ticks(MAX_TIME - island_publish_tick);
    let out = driver.finish();

    let severed = out.ledger.dropped_partitioned;
    assert!(
        severed > 0,
        "the cut-at-{CUT_AT} partition must sever cross-island gossip"
    );
    let parasites = out.tally.total(Family::Da, Kind::Parasite);
    assert_eq!(
        parasites, 0,
        "heal {heal:?}, seed {seed:#x}: {substrate:?} parasites"
    );

    let events = [mainland_publisher, island_publisher].map(|publisher| EventId {
        publisher,
        sequence: 0,
    });
    let population: usize = scenario.group_sizes.iter().sum();
    let delivered: usize = events
        .iter()
        .map(|&id| out.processes.iter().filter(|p| p.has_delivered(id)).count())
        .sum();
    let ratio = delivered as f64 / (events.len() * population) as f64;

    let mainland_sets: Vec<Vec<EventId>> = delivered_sets(&out.processes)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !island.contains(&ProcessId::from_index(*i)))
        .map(|(_, ids)| ids)
        .collect();
    (ratio, mainland_sets)
}

/// Sweeps the heal tick of a two-island network partition and tabulates
/// the overall delivery ratio (across one mainland and one island
/// publication) on both substrates — the partition counterpart of
/// [`run_reliability_sweep`], with the x-axis driven through the shared
/// `da_core::network` model.
///
/// A [`Partition`] cuts the last eight members of the bottom group off
/// from everyone else from tick 0 and heals at the swept
/// tick (`None` = never, tabulated as `x = -1`). `scenario` supplies the
/// topology, the parameters and the channel under the cut (keep it
/// lossless to isolate the partition axis); `seed` roots every trial's.
///
/// Within one trial, sim and live share the **same seed** (see
/// `paired_sweep`): the partition severs the identical sends on both
/// substrates (the severed check is a pure function consuming no
/// randomness), so beyond the statistical 3σ ratio agreement the
/// never-partitioned cohort must deliver **bit-identical** event sets —
/// which this function asserts per trial, alongside a hard zero for
/// parasites.
///
/// # Panics
///
/// Panics up front when a heal tick is past `MAX_TIME - 2` (62): the
/// island publishes two ticks after the heal, inside the fixed
/// `MAX_TIME`-tick horizon. Then panics when a trial sees a parasite
/// delivery, when a cut fails to sever any send, or when the
/// never-partitioned cohort's delivered sets diverge between the
/// substrates — each a violation of the cross-substrate contract this
/// experiment exists to enforce.
#[must_use]
pub fn run_partition_sweep(
    scenario: &ScenarioConfig,
    heal_ticks: &[Option<u64>],
    seed: u64,
    trials: usize,
) -> Table<f64> {
    for &tick in heal_ticks.iter().flatten() {
        assert!(
            tick <= MAX_TIME - 2,
            "heal tick {tick} leaves no room for the island publication two ticks later: \
             heal ticks must be at most MAX_TIME - 2 = {}",
            MAX_TIME - 2
        );
    }
    let xs: Vec<f64> = heal_ticks
        .iter()
        .map(|heal| heal.map_or(-1.0, |tick| tick as f64))
        .collect();
    let title = "Delivery ratio across partition cut-and-heal scenarios, live vs simulated";
    paired_sweep(
        title,
        "heal_tick",
        &xs,
        seed,
        trials,
        |row, substrate, seed| partition_trial(scenario, heal_ticks[row], substrate, seed),
    )
}

/// True when two per-substrate delivery-ratio summaries agree within
/// three standard errors of their difference of means.
///
/// `floor` guards the degenerate corner where both variances collapse
/// (e.g. every trial delivers the full audience at `p = 1.0`): the
/// tolerance never drops below it. Exposed so the acceptance test and
/// the `live_vs_sim` binary apply the identical criterion.
#[must_use]
pub fn ratios_agree_within_3_sigma(sim: &Summary, live: &Summary, floor: f64) -> bool {
    let se_diff = (sim.std_dev.powi(2) / sim.count.max(1) as f64
        + live.std_dev.powi(2) / live.count.max(1) as f64)
        .sqrt();
    (sim.mean - live.mean).abs() <= (3.0 * se_diff).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Row;
    use da_core::{ChannelConfig, Latency};

    /// The `[4, 10, 40]` chain with pinned-high knobs (as in the e2e
    /// suites, so the assertions are not at the mercy of a thread
    /// interleaving), over lossless channels of the given latency and
    /// without failures — the starting point the sweeps override per row.
    fn pinned(latency: Latency) -> ScenarioConfig {
        let mut scenario = ScenarioConfig {
            group_sizes: vec![4, 10, 40],
            params: pinned_params(15.0, 10.0),
            faults: FaultConfig::default(),
            ..ScenarioConfig::paper_default()
        };
        scenario.faults.network.channel = ChannelConfig::reliable().with_latency(latency);
        scenario
    }

    #[test]
    fn substrates_agree_on_reliability_and_parasites() {
        let t = run_live_vs_sim(&pinned(Latency::Fixed(1)), 3, 0xC0FE);
        assert_eq!(t.rows.len(), 2);
        for (row, Row { key: name, values }) in t.rows.iter().enumerate() {
            // delivered_t0..t2 all ≈ 1 under pinned knobs.
            for (level, value) in values.iter().enumerate().take(3) {
                assert!(
                    value.mean > 0.95,
                    "row {row} ({name}) level {level}: {}",
                    value.mean
                );
            }
            assert_eq!(values[3].mean, 0.0, "{name}: parasites");
            assert!(values[4].mean > 0.0, "{name}: event traffic recorded");
        }
    }

    /// Live and simulated delivery ratios agree within 3σ at every swept
    /// success probability — both under one-tick latency (lag window 1)
    /// and with a two-tick latency floor, where workers genuinely drift.
    #[test]
    fn reliability_sweep_substrates_agree_within_3_sigma() {
        let probs = RELIABILITY_SWEEP_PROBABILITIES;
        let trials = 6;
        for latency in [Latency::Fixed(1), Latency::Fixed(2)] {
            let table = run_reliability_sweep(&pinned(latency), &probs, 0x5EED, trials);
            assert_eq!(table.rows.len(), probs.len());
            for row in &table.rows {
                let (sim, live) = (&row.values[0], &row.values[1]);
                assert_eq!(sim.count, trials);
                assert_eq!(live.count, trials);
                // Pinned-high knobs keep gossip near-atomic even at p = 0.8.
                assert!(
                    sim.mean > 0.9 && live.mean > 0.9,
                    "p = {} ({latency:?}): sim {} / live {} — degraded",
                    row.key,
                    sim.mean,
                    live.mean
                );
                // The 0.02 floor covers the zero-variance corner (p = 1.0
                // delivers everything in every trial on both substrates).
                assert!(
                    ratios_agree_within_3_sigma(sim, live, 0.02),
                    "p = {} ({latency:?}): sim {} ± {} vs live {} ± {} disagree beyond 3σ",
                    row.key,
                    sim.mean,
                    sim.std_dev,
                    live.mean,
                    live.std_dev
                );
            }
        }
    }

    /// Live and simulated delivery ratios agree within 3σ at every
    /// swept churn crash rate — the dynamic-failure analogue of the
    /// reliability criterion, over the shared `da_core::failure` plan
    /// (fate-matched pairs per trial).
    #[test]
    fn churn_sweep_substrates_agree_within_3_sigma() {
        let rates = CHURN_SWEEP_CRASH_RATES;
        let trials = 6;
        let mut base = pinned(Latency::Fixed(1));
        base.faults.failure = FailureModel::Churn {
            crash_probability: 0.0,
            recover_probability: 0.3,
        };
        let table = run_churn_sweep(&base, &rates, 0xC4A0, trials);
        assert_eq!(table.rows.len(), rates.len());
        for row in &table.rows {
            let (sim, live) = (&row.values[0], &row.values[1]);
            assert_eq!(sim.count, trials);
            assert_eq!(live.count, trials);
            // Churned processes legitimately miss events, but the
            // stationary aliveness (0.3 / (crash + 0.3)) stays ≥ 85%
            // across the swept rates, so the bulk still delivers.
            assert!(
                sim.mean > 0.6 && live.mean > 0.6,
                "crash = {}: sim {} / live {} — degraded",
                row.key,
                sim.mean,
                live.mean
            );
            if row.key == 0.0 {
                assert!(sim.mean > 0.999 && live.mean > 0.999, "no churn, no loss");
            }
            // The 0.02 floor covers the zero-variance no-churn corner.
            assert!(
                ratios_agree_within_3_sigma(sim, live, 0.02),
                "crash = {}: sim {} ± {} vs live {} ± {} disagree beyond 3σ",
                row.key,
                sim.mean,
                sim.std_dev,
                live.mean,
                live.std_dev
            );
        }
    }

    #[test]
    fn churn_sweep_rejects_a_churnless_base() {
        let result =
            std::panic::catch_unwind(|| run_churn_sweep(&pinned(Latency::Fixed(1)), &[0.0], 1, 1));
        assert!(result.is_err(), "a non-Churn base must be rejected");
    }

    /// Tentpole acceptance: across ≥ 3 partition cut-and-heal scenarios
    /// the live and simulated delivery ratios agree within 3σ — and
    /// (asserted inside [`run_partition_sweep`], per trial) the
    /// never-partitioned cohort's delivered sets are bit-identical
    /// across substrates from one seed, with zero parasites. Run both
    /// under one-tick latency and with a two-tick latency floor, where
    /// workers genuinely drift.
    #[test]
    fn partition_sweep_substrates_agree_and_mainland_sets_match() {
        let trials = 4;
        // The mid-wave heal tick scales with the channel latency: the
        // infect-and-die wave's senders fire every `latency` ticks.
        for (latency, early) in [(Latency::Fixed(1), 2u64), (Latency::Fixed(2), 4u64)] {
            let heals = vec![Some(early), Some(24), None];
            let table = run_partition_sweep(&pinned(latency), &heals, 0x9A27, trials);
            assert_eq!(table.rows.len(), heals.len());
            for (row, &heal) in table.rows.iter().zip(&heals) {
                let (sim, live) = (&row.values[0], &row.values[1]);
                assert_eq!(sim.count, trials);
                assert_eq!(live.count, trials);
                assert!(
                    ratios_agree_within_3_sigma(sim, live, 0.02),
                    "heal {heal:?} ({latency:?}): sim {} ± {} vs live {} ± {} disagree \
                     beyond 3σ",
                    sim.mean,
                    sim.std_dev,
                    live.mean,
                    live.std_dev
                );
                // The scenarios must actually be distinct: a mid-wave
                // heal re-merges the overlay while the mainland event is
                // still being gossiped (full recovery); a late heal loses
                // that event on the island but the post-heal island event
                // still blankets everyone; a permanent cut strands the
                // island event on its side.
                match heal {
                    Some(tick) if tick == early => assert!(
                        sim.mean > 0.95 && live.mean > 0.95,
                        "early heal must recover fully: sim {} / live {}",
                        sim.mean,
                        live.mean
                    ),
                    Some(_) => assert!(
                        sim.mean > 0.8 && sim.mean < 0.999 && live.mean > 0.8,
                        "late heal must lose the mainland event on the island only: \
                         sim {} / live {}",
                        sim.mean,
                        live.mean
                    ),
                    None => assert!(
                        sim.mean < 0.6 && live.mean < 0.6,
                        "a permanent cut must strand the island: sim {} / live {}",
                        sim.mean,
                        live.mean
                    ),
                }
            }
        }
    }

    /// The island publishes two ticks after the heal, inside the fixed
    /// horizon: a later heal is refused before any trial runs, rather
    /// than underflowing the remaining-ticks count.
    #[test]
    #[should_panic(expected = "heal tick 63 leaves no room")]
    fn partition_sweep_rejects_a_heal_past_the_horizon() {
        let _ = run_partition_sweep(&pinned(Latency::Fixed(1)), &[Some(2), Some(63)], 1, 1);
    }

    /// Both runs of a trial see one seed,
    /// `derive_seed(derive_seed(seed, row), t)`, the simulator's first,
    /// and no two trials of a sweep share one.
    #[test]
    fn paired_sweep_gives_both_substrates_of_a_trial_one_seed() {
        let (rows, trials, seed) = (3, 4, 0xBA5E);
        let mut seen = Vec::new();
        let table = paired_sweep(
            "t",
            "x",
            &[0.0, 0.5, 1.0],
            seed,
            trials,
            |row, substrate, s| {
                seen.push((row, substrate, s));
                (1.0, ())
            },
        );
        assert_eq!(table.rows.len(), rows);
        assert_eq!(seen.len(), rows * trials * 2);
        let mut seeds = Vec::new();
        for (i, pair) in seen.chunks(2).enumerate() {
            let (row, t) = (i / trials, i % trials);
            let expected = derive_seed(derive_seed(seed, row as u64), t as u64);
            assert_eq!(
                pair[0],
                (row, SUBSTRATES[0], expected),
                "row {row} trial {t}"
            );
            assert_eq!(
                pair[1],
                (row, SUBSTRATES[1], expected),
                "row {row} trial {t}"
            );
            seeds.push(expected);
        }
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            rows * trials,
            "rows and trials see distinct seeds"
        );
    }

    /// A trial whose two runs differ on what they must reproduce fails.
    #[test]
    #[should_panic(expected = "x 0.5, trial 0: sim and live differ")]
    fn paired_sweep_rejects_a_pair_that_differs() {
        let _ = paired_sweep("t", "x", &[0.5], 1, 1, |_, substrate, _| (1.0, substrate));
    }

    #[test]
    fn agreement_criterion_flags_real_gaps() {
        let tight = Summary::of(&[0.99, 1.0, 0.98, 1.0]);
        let close = Summary::of(&[0.98, 0.99, 1.0, 0.97]);
        assert!(ratios_agree_within_3_sigma(&tight, &close, 0.02));
        let far = Summary::of(&[0.5, 0.52, 0.49, 0.51]);
        assert!(!ratios_agree_within_3_sigma(&tight, &far, 0.02));
    }
}
