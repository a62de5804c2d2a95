//! The paper's simulation scenario (Sec. VII-A), parameterised, and the
//! one single-publication trial every experiment measures with.
//!
//! [`publish_and_settle`] is that trial: a population on either
//! substrate, one publication, run to quiescence. [`run_scenario`] runs it
//! on the paper's setting — a linear chain with per-level group sizes, one
//! parameter set, one fault surface, one event published in a chosen group
//! — and reads per-group message counts and delivery fractions from the
//! counters. The baselines' tables call the trial directly.

use crate::substrate::{Driver, Substrate};
use da_core::{
    ChannelConfig, EnvelopeLedger, ExecProtocol, FailureModel, Family, FaultConfig, Kind,
    NetworkModel, ProcessId, RunConfig, Tally, WireSize,
};
use da_membership::FanoutRule;
use da_runtime::Shutdown;
use damulticast::{DaProcess, Network, TopicParams};

/// Configuration of one paper scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Group sizes, top-down: `[S_T0, S_T1, …]` (the paper uses
    /// `[10, 100, 1000]`).
    pub group_sizes: Vec<usize>,
    /// Protocol parameters (uniform across topics).
    pub params: TopicParams,
    /// What can go wrong: channels, topology, partitions and process
    /// failures.
    pub faults: FaultConfig,
    /// Index of the group the event is published in (the paper publishes
    /// in the bottom-most group).
    pub publish_level: usize,
}

/// Safety cap on the rounds of one scenario.
const MAX_ROUNDS: u64 = 64;

impl ScenarioConfig {
    /// The paper's Sec. VII-A setting: `t = 3`, sizes 10/100/1000,
    /// `b = 3`, `c = 5` (log10 fanout), `g = 5`, `a = 1`, `z = 3`,
    /// `p_succ = 0.85`, stillborn failures with everyone alive (Figs. 8–10
    /// sweep the alive fraction), events published in `T2`.
    #[must_use]
    pub fn paper_default() -> Self {
        ScenarioConfig {
            group_sizes: vec![10, 100, 1000],
            params: TopicParams::paper_default(),
            faults: FaultConfig {
                network: NetworkModel::uniform(ChannelConfig::paper_default()),
                failure: FailureModel::Stillborn {
                    alive_fraction: 1.0,
                },
            },
            publish_level: 2,
        }
    }

    /// A scaled-down variant for quick tests and CI: sizes 5/20/100.
    #[must_use]
    pub fn small() -> Self {
        ScenarioConfig {
            group_sizes: vec![5, 20, 100],
            ..ScenarioConfig::paper_default()
        }
    }

    /// Replaces the fanout rule.
    #[must_use]
    pub fn with_fanout(mut self, fanout: FanoutRule) -> Self {
        self.params.fanout = fanout;
        self
    }
}

/// Per-group and aggregate measurements of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Event messages gossiped inside each group, top-down per level.
    pub intra: Vec<f64>,
    /// Event messages that *arrived* in level `i` from level `i + 1`,
    /// top-down like `group_sizes` (length `levels − 1`): in a 3-level
    /// chain `inter_in[0]` counts `T1→T0` arrivals and `inter_in[1]`
    /// `T2→T1` arrivals.
    pub inter_in: Vec<f64>,
    /// Fraction of **all** group members that delivered the event,
    /// top-down per level — the paper's Fig. 10/11 y-axis ("percentage of
    /// processes receiving a message"); crashed members count against it.
    pub delivered_fraction: Vec<f64>,
    /// Fraction of *alive* group members that delivered the event,
    /// top-down per level — reliability among survivors.
    pub delivered_alive_fraction: Vec<f64>,
    /// Parasite receptions (must be zero for daMulticast).
    pub parasites: f64,
    /// Rounds executed before quiescence (or the cap).
    pub rounds: f64,
    /// Total event messages sent (intra + inter, all groups).
    pub total_event_messages: f64,
    /// The run's envelope ledger.
    pub ledger: EnvelopeLedger,
    /// What the protocol counted.
    pub tally: Tally,
}

/// One publication, run to quiescence: starts `processes` on `substrate`
/// under `config`, has `publisher` run `publish`, and runs until a tick is
/// quiet or `max_ticks` have run. Returns what `publish` returned, the
/// ticks that ran, and the ended run.
pub fn publish_and_settle<P, R>(
    substrate: Substrate,
    config: RunConfig,
    processes: Vec<P>,
    publisher: ProcessId,
    publish: impl FnOnce(&mut P) -> R + Send + 'static,
    max_ticks: u64,
) -> (R, u64, Shutdown<P>)
where
    P: ExecProtocol + Send + 'static,
    P::Msg: Clone + std::fmt::Debug + WireSize + Send + 'static,
    R: Send + 'static,
{
    let mut driver = Driver::spawn(substrate, config, processes);
    let published = driver.apply(publisher, publish);
    let ticks = driver.run_until_quiescent(max_ticks);
    (published, ticks, driver.finish())
}

/// The first of `candidates` that `failure`, materialised for `population`
/// processes under `seed`, does not crash before round 0: the first that a
/// substrate spawned with that seed reports alive before its first tick.
#[must_use]
pub(crate) fn first_standing(
    failure: &FailureModel,
    population: usize,
    seed: u64,
    mut candidates: impl Iterator<Item = ProcessId>,
) -> Option<ProcessId> {
    let plan = failure.materialize(population, seed);
    candidates.find(|&pid| !plan.is_initially_crashed(pid))
}

/// `part / whole`, and 0 for an empty whole.
fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs one seeded scenario on `substrate` and extracts the outcome.
///
/// The publisher is the first member of the publish-level group that the
/// failure plan does not crash before round 0 (the paper measures
/// dissemination of a published event, so a dead publisher would measure
/// nothing); a wholly crashed publish group measures zero everywhere.
///
/// # Panics
///
/// Panics when the configuration is invalid (publish level out of range,
/// parameters out of range) — experiment configurations are code, not
/// user input.
#[must_use]
pub fn run_scenario(config: &ScenarioConfig, substrate: Substrate, seed: u64) -> ScenarioOutcome {
    run_scenario_keeping(config, substrate, seed, |_| ()).0
}

/// [`run_scenario`], also returning what `keep` reads off the run's
/// processes once it has ended (before it started, when no publisher
/// stands).
pub(crate) fn run_scenario_keeping<W>(
    config: &ScenarioConfig,
    substrate: Substrate,
    seed: u64,
    keep: impl FnOnce(&[DaProcess]) -> W,
) -> (ScenarioOutcome, W) {
    let levels = config.group_sizes.len();
    assert!(config.publish_level < levels, "publish level out of range");

    let net = Network::linear(&config.group_sizes, config.params, seed)
        .expect("scenario topology must be valid");
    let groups = net.groups().to_vec();
    let processes = net.into_processes();

    let candidates = groups[config.publish_level].members.iter().copied();
    let standing = first_standing(&config.faults.failure, processes.len(), seed, candidates);
    let Some(publisher) = standing else {
        let outcome = ScenarioOutcome {
            intra: vec![0.0; levels],
            inter_in: vec![0.0; levels - 1],
            delivered_fraction: vec![0.0; levels],
            delivered_alive_fraction: vec![0.0; levels],
            parasites: 0.0,
            rounds: 0.0,
            total_event_messages: 0.0,
            ledger: EnvelopeLedger::default(),
            tally: Tally::default(),
        };
        return (outcome, keep(&processes));
    };
    let run = RunConfig::default()
        .with_seed(seed)
        .with_faults(config.faults.clone());
    let (event, rounds, out) = publish_and_settle(
        substrate,
        run,
        processes,
        publisher,
        |p| p.publish("bench"),
        MAX_ROUNDS,
    );

    let mut delivered_fraction = Vec::with_capacity(levels);
    let mut delivered_alive_fraction = Vec::with_capacity(levels);
    for group in &groups {
        let (mut alive, mut delivered, mut delivered_alive) = (0, 0, 0);
        for pid in &group.members {
            let up = out.statuses[pid.index()].is_alive();
            let got = out.processes[pid.index()].has_delivered(event);
            alive += usize::from(up);
            delivered += usize::from(got);
            delivered_alive += usize::from(up && got);
        }
        delivered_fraction.push(fraction(delivered, group.members.len()));
        delivered_alive_fraction.push(fraction(delivered_alive, alive));
    }
    let tally = out.tally;
    let per_group =
        |kind, level: usize| tally.get(Family::Da, kind, groups[level].topic.index()) as f64;
    let total = |kind| tally.total(Family::Da, kind);
    let kept = keep(&out.processes);
    let outcome = ScenarioOutcome {
        intra: (0..levels).map(|l| per_group(Kind::Intra, l)).collect(),
        // inter_in at the parent group counts events that crossed into it.
        inter_in: (0..levels - 1)
            .map(|l| per_group(Kind::InterIn, l))
            .collect(),
        delivered_fraction,
        delivered_alive_fraction,
        parasites: total(Kind::Parasite) as f64,
        rounds: rounds as f64,
        total_event_messages: (total(Kind::Intra) + total(Kind::InterOut)) as f64,
        ledger: out.ledger,
        tally,
    };
    (outcome, kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: Substrate = Substrate::Sim;

    /// `ScenarioConfig::small()` under `failure`.
    fn small(failure: FailureModel) -> ScenarioConfig {
        let mut config = ScenarioConfig::small();
        config.faults.failure = failure;
        config
    }

    fn stillborn(alive_fraction: f64) -> ScenarioConfig {
        small(FailureModel::Stillborn { alive_fraction })
    }

    /// Everything an outcome measures: its per-level columns, its scalars,
    /// its ledger and its tally.
    type Measured = (Vec<Vec<f64>>, [f64; 3], EnvelopeLedger, Tally);

    fn measured(out: ScenarioOutcome) -> Measured {
        let columns = vec![
            out.intra,
            out.inter_in,
            out.delivered_fraction,
            out.delivered_alive_fraction,
        ];
        let scalars = [out.parasites, out.rounds, out.total_event_messages];
        (columns, scalars, out.ledger, out.tally)
    }

    #[test]
    fn healthy_small_scenario_delivers_everywhere() {
        let config = ScenarioConfig {
            faults: FaultConfig::default(),
            ..ScenarioConfig::small()
        };
        let out = run_scenario(&config, SIM, 1);
        assert_eq!(out.parasites, 0.0);
        assert!(out.delivered_fraction[2] > 0.99, "leaf group full coverage");
        assert!(out.delivered_fraction[0] > 0.99, "root group full coverage");
        assert!(out.intra[2] > out.intra[1], "bigger groups send more");
        assert!(out.total_event_messages > 0.0);
        assert!(out.rounds > 0.0);
    }

    #[test]
    fn inter_in_counts_boundary_crossings() {
        let config = ScenarioConfig {
            faults: FaultConfig::default(),
            ..ScenarioConfig::small()
        };
        let out = run_scenario(&config, SIM, 3);
        assert_eq!(out.inter_in.len(), 2);
        // Both boundaries must have been crossed at least once for the
        // root group to deliver.
        if out.delivered_fraction[0] > 0.0 {
            assert!(out.inter_in[0] >= 1.0, "T1→T0 arrivals");
            assert!(out.inter_in[1] >= 1.0, "T2→T1 arrivals");
        }
    }

    #[test]
    fn stillborn_reduces_messages_and_reliability() {
        let healthy = run_scenario(&stillborn(1.0), SIM, 7);
        let half = run_scenario(&stillborn(0.5), SIM, 7);
        assert!(half.intra[2] < healthy.intra[2]);
        assert!(half.delivered_fraction[2] <= healthy.delivered_fraction[2] + 1e-9);
    }

    #[test]
    fn fully_dead_population_yields_zero() {
        let out = run_scenario(&stillborn(0.0), SIM, 5);
        assert_eq!(out.total_event_messages, 0.0);
        assert_eq!(out.delivered_fraction, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn per_observer_beats_stillborn_at_same_aliveness() {
        // The paper's Fig. 11 vs Fig. 10 claim, averaged over seeds.
        let observer_config = small(FailureModel::PerObserver {
            alive_fraction: 0.6,
        });
        let mut still = 0.0;
        let mut observer = 0.0;
        for seed in 0..8 {
            still += run_scenario(&stillborn(0.6), SIM, seed).delivered_fraction[2];
            observer += run_scenario(&observer_config, SIM, seed).delivered_fraction[2];
        }
        assert!(
            observer > still,
            "dynamic failures ({observer}) should beat stillborn ({still})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let config = ScenarioConfig::small();
        let run = || measured(run_scenario(&config, SIM, 11));
        assert_eq!(run(), run());
    }

    /// On reliable channels a one-worker pool measures what the simulator
    /// measures, digit for digit, under each of the paper's failure
    /// models: the same per-level columns, the same quiescent tick, the
    /// same ledger and the same counters.
    #[test]
    fn a_one_worker_pool_measures_what_the_simulator_measures() {
        let models = [
            FailureModel::None,
            FailureModel::Stillborn {
                alive_fraction: 0.8,
            },
            FailureModel::PerObserver {
                alive_fraction: 0.8,
            },
        ];
        let live = Substrate::Live { workers: 1 };
        for failure in models {
            let mut config = small(failure.clone());
            config.faults.network = NetworkModel::uniform(ChannelConfig::reliable());
            for seed in [1, 2] {
                let sim_out = measured(run_scenario(&config, SIM, seed));
                let live_out = measured(run_scenario(&config, live, seed));
                assert!(
                    sim_out.1[2] > 0.0,
                    "{failure:?}, seed {seed}: event traffic"
                );
                assert_eq!(sim_out, live_out, "{failure:?}, seed {seed}");
            }
        }
    }

    /// On a diamond — `.a` and `.b` below the root, `.a.c` below both
    /// (Sec. VIII's multiple inheritance) — one publication reaches every
    /// member of each group whose topic includes the publisher's and no
    /// one else, on both substrates, with no parasite.
    #[test]
    fn a_diamond_publication_reaches_exactly_its_ancestor_cone() {
        use damulticast::GroupSpec;
        use std::sync::Arc;

        let mut h = da_topics::TopicHierarchy::from_paths([".a.c", ".b"]).unwrap();
        let [a, b, c] = [".a", ".b", ".a.c"].map(|p| h.resolve(p).unwrap());
        h.add_supertopic(c, b).unwrap();
        let h = Arc::new(h);
        let topics = [h.root(), a, b, c];
        let members = da_membership::static_init::assign_group_members(&[4, 6, 6, 12]);
        let params = crate::experiments::live::pinned_params(20.0, 12.0);
        for substrate in [SIM, Substrate::Live { workers: 1 }] {
            for (&published, group) in topics.iter().zip(&members) {
                let groups = topics
                    .iter()
                    .zip(&members)
                    .map(|(&topic, members)| GroupSpec {
                        topic,
                        members: members.clone(),
                    })
                    .collect();
                let net = Network::from_groups(Arc::clone(&h), groups, params, 3)
                    .expect("valid topology");
                let (event, _, out) = publish_and_settle(
                    substrate,
                    RunConfig::default().with_seed(3),
                    net.into_processes(),
                    group[0],
                    |p| p.publish("cone"),
                    64,
                );
                let case = format!("{substrate:?}, published in {}", h.path(published));
                assert_eq!(out.tally.total(Family::Da, Kind::Parasite), 0, "{case}");
                for (&topic, members) in topics.iter().zip(&members) {
                    let in_cone = h.includes_or_eq(topic, published);
                    for pid in members {
                        let got = out.processes[pid.index()].has_delivered(event);
                        assert_eq!(got, in_cone, "{case}: {pid} of {}", h.path(topic));
                    }
                }
            }
        }
    }
}
