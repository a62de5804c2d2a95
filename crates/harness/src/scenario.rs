//! The paper's simulation scenario (Sec. VII-A), parameterised.
//!
//! One scenario = one topology (linear chain with per-level group sizes),
//! one parameter set, one failure model, one published event in a chosen
//! group — run to quiescence, with per-group message counts and delivery
//! fractions extracted from the metrics registry.

use crate::stats::Summary;
use da_core::{ChannelConfig, FailureModel, ProcessId};
use da_membership::FanoutRule;
use da_simnet::{Engine, SimConfig};
use da_topics::TopicId;
use damulticast::{ParamMap, StaticNetwork, TopicParams};

/// Failure regime of a scenario, mirroring the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// Everyone stays alive.
    None,
    /// Fig. 8–10: a fixed fraction is crashed before round 0.
    Stillborn,
    /// Fig. 11: per-transmission aliveness observation.
    PerObserver,
}

impl FailureKind {
    /// Materialises the corresponding [`FailureModel`].
    #[must_use]
    pub fn model(self, alive_fraction: f64) -> FailureModel {
        match self {
            FailureKind::None => FailureModel::None,
            FailureKind::Stillborn => FailureModel::Stillborn { alive_fraction },
            FailureKind::PerObserver => FailureModel::PerObserver { alive_fraction },
        }
    }
}

/// Configuration of one paper scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Group sizes, top-down: `[S_T0, S_T1, …]` (the paper uses
    /// `[10, 100, 1000]`).
    pub group_sizes: Vec<usize>,
    /// Protocol parameters (uniform across topics).
    pub params: TopicParams,
    /// Channel success probability (`0.85` in the paper).
    pub p_succ: f64,
    /// Failure regime.
    pub failure: FailureKind,
    /// Fraction of processes alive (interpretation depends on `failure`).
    pub alive_fraction: f64,
    /// Index of the group the event is published in (the paper publishes
    /// in the bottom-most group).
    pub publish_level: usize,
    /// Safety cap on simulated rounds.
    pub max_rounds: u64,
}

impl ScenarioConfig {
    /// The paper's Sec. VII-A setting: `t = 3`, sizes 10/100/1000,
    /// `b = 3`, `c = 5` (log10 fanout), `g = 5`, `a = 1`, `z = 3`,
    /// `p_succ = 0.85`, events published in `T2`.
    #[must_use]
    pub fn paper_default() -> Self {
        ScenarioConfig {
            group_sizes: vec![10, 100, 1000],
            params: TopicParams::paper_default(),
            p_succ: 0.85,
            failure: FailureKind::Stillborn,
            alive_fraction: 1.0,
            publish_level: 2,
            max_rounds: 64,
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

    /// Replaces the failure regime and aliveness.
    #[must_use]
    pub fn with_failure(mut self, failure: FailureKind, alive_fraction: f64) -> Self {
        self.failure = failure;
        self.alive_fraction = alive_fraction;
        self
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
    /// Event messages that *arrived* in level `i` from level `i+1`
    /// (length `levels − 1`): `inter_in[0]` is `T1→T0` arrivals
    /// in a 3-level chain... indexed top-down like `group_sizes`.
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
}

impl ScenarioOutcome {
    /// Flattens the outcome into the metric vector consumed by
    /// [`crate::runner::run_trials`]: intra per level, then inter_in per
    /// boundary, then delivered fraction per level, then parasites,
    /// rounds, total.
    #[must_use]
    pub fn into_metrics(self) -> Vec<f64> {
        let mut v = self.intra;
        v.extend(self.inter_in);
        v.extend(self.delivered_fraction);
        v.extend(self.delivered_alive_fraction);
        v.push(self.parasites);
        v.push(self.rounds);
        v.push(self.total_event_messages);
        v
    }

    /// Column labels matching [`ScenarioOutcome::into_metrics`] for a
    /// chain of `levels` groups.
    #[must_use]
    pub fn metric_labels(levels: usize) -> Vec<String> {
        let mut labels: Vec<String> = (0..levels).map(|i| format!("intra_t{i}")).collect();
        labels.extend((0..levels - 1).map(|i| format!("inter_t{}_to_t{}", i + 1, i)));
        labels.extend((0..levels).map(|i| format!("delivered_t{i}")));
        labels.extend((0..levels).map(|i| format!("delivered_alive_t{i}")));
        labels.push("parasites".into());
        labels.push("rounds".into());
        labels.push("total_event_messages".into());
        labels
    }
}

/// Runs one seeded scenario and extracts the outcome.
///
/// The publisher is the first *alive* member of the publish-level group
/// (the paper measures dissemination of a published event, so a dead
/// publisher would measure nothing). With stillborn failures the delivery
/// denominator counts alive members only; with per-observer failures
/// everyone is alive.
///
/// # Panics
///
/// Panics when the configuration is invalid (group sizes empty, parameters
/// out of range) — experiment configurations are code, not user input.
#[must_use]
pub fn run_scenario(config: &ScenarioConfig, seed: u64) -> ScenarioOutcome {
    let levels = config.group_sizes.len();
    assert!(levels > 0, "need at least the root group");
    assert!(config.publish_level < levels, "publish level out of range");

    let params = ParamMap::uniform(config.params);
    let net = StaticNetwork::linear(&config.group_sizes, params, seed)
        .expect("scenario topology must be valid");
    let hierarchy = std::sync::Arc::clone(net.hierarchy());
    let groups: Vec<(TopicId, Vec<ProcessId>)> = net
        .groups()
        .iter()
        .map(|g| (g.topic, g.members.clone()))
        .collect();

    let sim = SimConfig::default()
        .with_seed(seed)
        .with_channel(ChannelConfig::default().with_success_probability(config.p_succ))
        .with_failures(config.failure.model(config.alive_fraction));
    let mut engine = Engine::new(sim, net.into_processes());

    // First alive member of the publish group.
    let publisher = groups[config.publish_level]
        .1
        .iter()
        .copied()
        .find(|&p| engine.status(p).is_alive());
    let Some(publisher) = publisher else {
        // The whole publish group is dead: nothing can be measured.
        return ScenarioOutcome {
            intra: vec![0.0; levels],
            inter_in: vec![0.0; levels - 1],
            delivered_fraction: vec![0.0; levels],
            delivered_alive_fraction: vec![0.0; levels],
            parasites: 0.0,
            rounds: 0.0,
            total_event_messages: 0.0,
        };
    };
    let event_id = engine.process_mut(publisher).publish("paper event");
    let rounds = engine.run_until_quiescent(config.max_rounds);

    let mut intra = Vec::with_capacity(levels);
    let mut inter_in = Vec::with_capacity(levels.saturating_sub(1));
    let mut delivered_fraction = Vec::with_capacity(levels);
    let mut delivered_alive_fraction = Vec::with_capacity(levels);
    for (topic, members) in &groups {
        let path = hierarchy.path(*topic).as_str().to_owned();
        intra.push(engine.counters().get(&format!("da.intra.{path}")) as f64);
        let alive: Vec<ProcessId> = members
            .iter()
            .copied()
            .filter(|&p| engine.status(p).is_alive())
            .collect();
        let delivered = alive
            .iter()
            .filter(|&&p| engine.process(p).has_delivered(event_id))
            .count();
        delivered_fraction.push(if members.is_empty() {
            0.0
        } else {
            delivered as f64 / members.len() as f64
        });
        delivered_alive_fraction.push(if alive.is_empty() {
            0.0
        } else {
            delivered as f64 / alive.len() as f64
        });
    }
    for (topic, _) in groups.iter().take(levels - 1) {
        // inter_in at the parent label counts events that crossed into it.
        let path = hierarchy.path(*topic).as_str().to_owned();
        inter_in.push(engine.counters().get(&format!("da.inter_in.{path}")) as f64);
    }

    let total_event_messages = (engine.counters().sum_prefix("da.intra.")
        + engine.counters().sum_prefix("da.inter_out.")) as f64;

    ScenarioOutcome {
        intra,
        inter_in,
        delivered_fraction,
        delivered_alive_fraction,
        parasites: engine.counters().get("da.parasite") as f64,
        rounds: rounds as f64,
        total_event_messages,
    }
}

/// Convenience: run a scenario and flatten the outcome into metric form.
#[must_use]
pub fn run_scenario_metrics(config: &ScenarioConfig, seed: u64) -> Vec<f64> {
    run_scenario(config, seed).into_metrics()
}

/// Summaries → column extraction helper: picks the metric at `index` from
/// each `(x, summaries)` row of a sweep.
#[must_use]
pub fn column(rows: &[(f64, Vec<Summary>)], index: usize) -> Vec<(f64, Summary)> {
    rows.iter().map(|(x, s)| (*x, s[index])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_small_scenario_delivers_everywhere() {
        let config = ScenarioConfig {
            p_succ: 1.0,
            alive_fraction: 1.0,
            ..ScenarioConfig::small()
        };
        let out = run_scenario(&config, 1);
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
            p_succ: 1.0,
            ..ScenarioConfig::small()
        };
        let out = run_scenario(&config, 3);
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
        let healthy = run_scenario(
            &ScenarioConfig::small().with_failure(FailureKind::Stillborn, 1.0),
            7,
        );
        let half = run_scenario(
            &ScenarioConfig::small().with_failure(FailureKind::Stillborn, 0.5),
            7,
        );
        assert!(half.intra[2] < healthy.intra[2]);
        assert!(half.delivered_fraction[2] <= healthy.delivered_fraction[2] + 1e-9);
    }

    #[test]
    fn fully_dead_population_yields_zero() {
        let out = run_scenario(
            &ScenarioConfig::small().with_failure(FailureKind::Stillborn, 0.0),
            5,
        );
        assert_eq!(out.total_event_messages, 0.0);
        assert_eq!(out.delivered_fraction, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn per_observer_beats_stillborn_at_same_aliveness() {
        // The paper's Fig. 11 vs Fig. 10 claim, averaged over seeds.
        let mut stillborn = 0.0;
        let mut observer = 0.0;
        for seed in 0..8 {
            stillborn += run_scenario(
                &ScenarioConfig::small().with_failure(FailureKind::Stillborn, 0.6),
                seed,
            )
            .delivered_fraction[2];
            observer += run_scenario(
                &ScenarioConfig::small().with_failure(FailureKind::PerObserver, 0.6),
                seed,
            )
            .delivered_fraction[2];
        }
        assert!(
            observer > stillborn,
            "dynamic failures ({observer}) should beat stillborn ({stillborn})"
        );
    }

    #[test]
    fn metrics_roundtrip_matches_labels() {
        let config = ScenarioConfig::small();
        let metrics = run_scenario_metrics(&config, 2);
        let labels = ScenarioOutcome::metric_labels(3);
        assert_eq!(metrics.len(), labels.len());
        assert_eq!(labels[0], "intra_t0");
        assert_eq!(labels[3], "inter_t1_to_t0");
        assert_eq!(labels[5], "delivered_t0");
        assert_eq!(labels[8], "delivered_alive_t0");
        assert_eq!(labels[11], "parasites");
    }

    #[test]
    fn deterministic_per_seed() {
        let config = ScenarioConfig::small();
        assert_eq!(
            run_scenario_metrics(&config, 11),
            run_scenario_metrics(&config, 11)
        );
    }
}
