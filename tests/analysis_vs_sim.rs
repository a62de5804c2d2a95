//! Analysis-vs-simulation cross-validation: the measured behaviour of the
//! implemented protocol must track the closed forms of Sec. VI within
//! gossip's constant-factor slack. This is the strongest evidence that
//! both the math module and the protocol implementation encode the same
//! algorithm.

use da_analysis::complexity::{self, GroupLevel};
use da_analysis::gossip_math::atomic_infection_probability;
use da_analysis::memory;
use da_analysis::reliability;
use da_core::{ChannelConfig, FaultConfig};
use da_harness::runner::run_trials;
use da_harness::scenario::{run_scenario, ScenarioConfig};
use da_harness::substrate::Substrate;
use da_membership::FanoutRule;

const SIZES: [usize; 3] = [10, 50, 250];

fn base_config() -> ScenarioConfig {
    ScenarioConfig {
        group_sizes: SIZES.to_vec(),
        faults: FaultConfig::default(),
        ..ScenarioConfig::paper_default()
    }
    .with_fanout(FanoutRule::LnPlusC { c: 5.0 })
}

fn analysis_levels(p_succ: f64) -> Vec<GroupLevel> {
    SIZES
        .iter()
        .rev()
        .map(|&s| GroupLevel {
            s,
            c: 5.0,
            g: 5.0,
            a: 1.0,
            z: 3,
            p_succ,
        })
        .collect()
}

/// Measured intra-group message totals match `Σ S·(ln S + c)` closely:
/// every infected process gossips exactly `⌊ln S + c⌋` times, so the only
/// slack is the floor and the infected fraction.
#[test]
fn intra_message_count_matches_analysis() {
    let config = base_config();
    let measured = run_trials(10, 1, |seed| {
        vec![run_scenario(&config, Substrate::Sim, seed).total_event_messages]
    })[0]
        .mean;
    let predicted = complexity::damulticast_messages(&analysis_levels(1.0));
    let ratio = measured / predicted;
    assert!(
        (0.7..=1.1).contains(&ratio),
        "measured {measured} vs predicted {predicted} (ratio {ratio})"
    );
}

/// Measured inter-group crossings match `S·p_sel·p_a·z·p_succ` in
/// expectation (Sec. VI-B's nbSuperMsg), within sampling error.
#[test]
fn intergroup_count_matches_analysis() {
    let config = base_config();
    // inter_in[1] = arrivals at T1 from T2.
    let measured = run_trials(60, 2, |seed| {
        let out = run_scenario(&config, Substrate::Sim, seed);
        vec![out.inter_in[1]]
    })[0]
        .mean;
    let leaf = &analysis_levels(1.0)[0];
    let predicted = complexity::intergroup_messages(leaf);
    assert!(
        (measured - predicted).abs() < predicted * 0.5 + 1.0,
        "measured {measured} vs predicted {predicted}"
    );
}

/// Measured per-process memory stays within the `ln(S) + c + z` bound of
/// Sec. VI-C (in table entries: `(b+1)ln(S)` view + `z`).
#[test]
fn memory_within_paper_bound() {
    let net = damulticast::Network::linear(&SIZES, damulticast::TopicParams::default(), 3).unwrap();
    let groups = net.groups().to_vec();
    let procs = net.into_processes();
    for p in &procs {
        let group = groups.iter().find(|g| g.topic == p.topic()).unwrap();
        let view_bound = da_membership::kmg_view_size(3.0, group.members.len());
        assert!(
            p.memory_entries() <= view_bound + 3,
            "memory {} exceeds (b+1)lnS + z = {}",
            p.memory_entries(),
            view_bound + 3
        );
    }
    // And the closed form orders the algorithms correctly.
    let leaf_s = SIZES[2];
    assert!(
        memory::damulticast_memory(leaf_s, 5.0, 3)
            < memory::multicast_memory(&[(SIZES[0], 5.0), (SIZES[1], 5.0), (SIZES[2], 5.0)])
    );
}

/// Measured leaf-group delivery at full aliveness is at least the
/// `e^{-e^{-c}}` atomic-gossip probability (the analysis' lower bound for
/// *all* processes receiving).
#[test]
fn reliability_at_least_atomic_bound() {
    let config = base_config();
    let full_coverage_fraction = run_trials(40, 4, |seed| {
        let out = run_scenario(&config, Substrate::Sim, seed);
        // Fraction of trials where the *entire* leaf group delivered.
        vec![f64::from(out.delivered_fraction[2] >= 1.0 - 1e-9)]
    })[0]
        .mean;
    let bound = atomic_infection_probability(5.0); // ≈ 0.9933
    assert!(
        full_coverage_fraction >= bound - 0.08,
        "full-coverage fraction {full_coverage_fraction} far below e^-e^-c = {bound}"
    );
}

/// Lossy channels: measured root delivery tracks the end-to-end
/// reliability product of eq. 1 within coarse tolerance.
#[test]
fn lossy_reliability_tracks_eq1() {
    let mut config = base_config();
    config.faults.network.channel = ChannelConfig::paper_default();
    // 120 trials: the per-trial fraction has std ≈ 0.3, so 40 trials left
    // the mean within sampling distance of the bound on unlucky seeds.
    let measured = run_trials(120, 5, |seed| {
        let out = run_scenario(&config, Substrate::Sim, seed);
        vec![out.delivered_fraction[0]]
    })[0]
        .mean;
    let predicted = reliability::damulticast_reliability(&analysis_levels(0.85));
    assert!(
        measured >= predicted - 0.15,
        "measured root delivery {measured} far below eq.1 prediction {predicted}"
    );
}

/// The no-hierarchy degenerate case: a single group behaves exactly like
/// flat gossip broadcast (the paper's "no degradation" claim, Sec. I).
#[test]
fn single_group_degenerates_to_flat_gossip() {
    let config = ScenarioConfig {
        group_sizes: vec![200],
        publish_level: 0,
        faults: FaultConfig::default(),
        ..ScenarioConfig::paper_default()
    }
    .with_fanout(FanoutRule::LnPlusC { c: 5.0 });
    let summaries = run_trials(10, 6, |seed| {
        let out = run_scenario(&config, Substrate::Sim, seed);
        vec![out.total_event_messages, out.delivered_fraction[0]]
    });
    let predicted = complexity::broadcast_messages(200, 5.0);
    let ratio = summaries[0].mean / predicted;
    assert!(
        (0.8..=1.05).contains(&ratio),
        "degenerate case must cost like flat gossip (ratio {ratio})"
    );
    assert!(summaries[1].mean > 0.999, "full delivery in one group");
}
