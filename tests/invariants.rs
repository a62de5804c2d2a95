//! Property-based system invariants, checked over random topologies,
//! parameters, failure draws and publish patterns: the paper's claims
//! that the model checker also asserts (ARCHITECTURE.md, "Model
//! checking: from sampled to exhaustive").

use da_core::{ChannelConfig, FailureModel, Family, Kind};
use da_simnet::{Engine, SimConfig};
use da_tape::{check_cases, prop_assert, prop_assert_eq, Tape};
use damulticast::{Network, TopicParams};
use support::Logged;

mod support;

/// A random linear topology: 2–4 levels, each group 2–20 processes.
fn arb_topology(t: &mut Tape) -> Vec<usize> {
    t.vec(2..5, |t| t.range(2usize..20))
}

fn arb_params(t: &mut Tape) -> TopicParams {
    let (g, z, c) = (
        t.range(1.0f64..20.0),
        t.range(1usize..5),
        t.range(0.0f64..8.0),
    );
    TopicParams {
        g,
        z,
        a: 1.0,
        tau: 1.min(z),
        fanout: da_membership::FanoutRule::LnPlusC { c },
        ..TopicParams::paper_default()
    }
}

/// Invariant 1: no parasite delivery — whatever the topology,
/// parameters, loss rate, failures, and publish level.
#[test]
fn never_a_parasite() {
    check_cases("never_a_parasite", 48, |t| {
        let sizes = arb_topology(t);
        let params = arb_params(t);
        let publish_level_frac = t.range(0.0f64..1.0);
        let p_succ = t.range(0.3f64..1.0);
        let alive = t.range(0.3f64..1.0);
        let seed = t.range(0u64..1_000);
        let net = Network::linear(&sizes, params, seed).unwrap();
        let groups = net.groups().to_vec();
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_channel(ChannelConfig::default().with_success_probability(p_succ))
            .with_failures(FailureModel::Stillborn {
                alive_fraction: alive,
            });
        let mut engine = Engine::new(sim, net.into_processes());
        let level = ((publish_level_frac * sizes.len() as f64) as usize).min(sizes.len() - 1);
        if let Some(&publisher) = groups[level].members.first() {
            if engine.status(publisher).is_alive() {
                engine.process_mut(publisher).publish("prop");
            }
        }
        engine.run_until_quiescent(96);
        prop_assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);
        for (pid, p) in engine.processes() {
            prop_assert_eq!(p.parasite_count(), 0, "parasite at {}", pid);
        }
        Ok(())
    });
}

/// Invariant 2: at-most-once delivery per event id per process.
#[test]
fn delivery_is_exactly_once() {
    check_cases("delivery_is_exactly_once", 48, |t| {
        let sizes = arb_topology(t);
        let seed = t.range(0u64..1_000);
        let publishes = t.range(1usize..4);
        let net = Network::linear(&sizes, TopicParams::default(), seed).unwrap();
        let groups = net.groups().to_vec();
        let mut engine = Engine::new(SimConfig::default().with_seed(seed), net.into_processes());
        let leaf = groups.last().unwrap();
        for i in 0..publishes {
            let publisher = leaf.members[i % leaf.members.len()];
            engine.process_mut(publisher).publish(format!("e{i}"));
        }
        engine.run_until_quiescent(96);
        for (pid, p) in engine.processes() {
            let (total, distinct) = (p.deliveries() as usize, p.delivered().len());
            prop_assert_eq!(distinct, total, "duplicate delivery at {}", pid);
        }
        Ok(())
    });
}

/// Invariant 4 (memory): every topic table stays within the
/// `(b+1)·ln(S)` capacity, every supertable within `z`, and supertable
/// entries always reference strict-ancestor group members.
#[test]
fn table_bounds_and_ancestry() {
    check_cases("table_bounds_and_ancestry", 48, |t| {
        let sizes = arb_topology(t);
        let params = arb_params(t);
        let seed = t.range(0u64..1_000);
        let net = Network::linear(&sizes, params, seed).unwrap();
        let groups = net.groups().to_vec();
        let hierarchy = std::sync::Arc::clone(net.hierarchy());
        let procs = net.into_processes();
        for p in &procs {
            let my_group = groups.iter().find(|g| g.topic == p.topic()).unwrap();
            let cap = da_membership::kmg_view_size(params.b, my_group.members.len());
            prop_assert!(p.topic_table().len() <= cap.max(1));
            let tables = p.super_tables();
            prop_assert_eq!(tables.len(), usize::from(p.topic() != hierarchy.root()));
            prop_assert!(tables.iter().all(|t| t.len() <= params.z));
            for e in tables.iter().flat_map(|t| t.entries()) {
                prop_assert!(
                    hierarchy.includes(e.topic, p.topic()),
                    "supertable entry topic must strictly include the owner's"
                );
                let target_group = groups.iter().find(|g| g.topic == e.topic).unwrap();
                prop_assert!(target_group.members.contains(&e.pid));
            }
        }
        Ok(())
    });
}

/// Invariant 7: crashed processes never deliver.
#[test]
fn crashed_processes_stay_silent() {
    check_cases("crashed_processes_stay_silent", 48, |t| {
        let sizes = arb_topology(t);
        let alive = t.range(0.2f64..0.9);
        let seed = t.range(0u64..1_000);
        let net = Network::linear(&sizes, TopicParams::default(), seed).unwrap();
        let groups = net.groups().to_vec();
        let sim = SimConfig::default()
            .with_seed(seed)
            .with_failures(FailureModel::Stillborn {
                alive_fraction: alive,
            });
        let mut engine = Engine::new(sim, net.into_processes());
        let leaf = groups.last().unwrap();
        if let Some(&publisher) = leaf.members.iter().find(|&&p| engine.status(p).is_alive()) {
            engine.process_mut(publisher).publish("prop");
        }
        engine.run_until_quiescent(96);
        for (pid, p) in engine.processes() {
            if !engine.status(pid).is_alive() {
                prop_assert!(p.delivered().is_empty(), "{} is crashed yet delivered", pid);
            }
        }
        Ok(())
    });
}

/// Event ordering sanity: per-publisher sequence numbers are strictly
/// increasing in the delivered stream of every process.
#[test]
fn per_publisher_sequences_monotone() {
    check_cases("per_publisher_sequences_monotone", 48, |t| {
        let sizes = arb_topology(t);
        let seed = t.range(0u64..1_000);
        let net = Network::linear(&sizes, TopicParams::default(), seed).unwrap();
        let groups = net.groups().to_vec();
        let processes = Logged::all(net.into_processes());
        let mut engine = Engine::new(SimConfig::default().with_seed(seed), processes);
        let leaf = groups.last().unwrap();
        let publisher = leaf.members[0];
        for i in 0..3 {
            engine
                .process_mut(publisher)
                .process
                .publish(format!("s{i}"));
            // Sequential publications: later events are published in later
            // rounds, so gossip order preserves publisher order here.
            engine.run_rounds(8);
        }
        engine.run_until_quiescent(96);
        for (_, p) in engine.processes() {
            let seqs: Vec<u32> = p
                .log
                .iter()
                .filter(|id| id.publisher == publisher)
                .map(|id| id.sequence)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(seqs, sorted);
        }
        Ok(())
    });
}
