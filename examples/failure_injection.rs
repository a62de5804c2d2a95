//! Failure injection: the paper's two failure regimes side by side, plus a
//! scripted mid-run crash wave, on the same topology and seed.
//!
//! * **stillborn** (Figs. 8–10): a fraction of processes never starts;
//! * **per-observer** (Fig. 11): every transmission independently sees its
//!   target as failed — reliability is much better at equal "aliveness";
//! * **crash schedule**: half the root group dies mid-run — the dynamic
//!   stack's maintenance task (Fig. 6) repairs the supertopic links.
//!
//! Run with: `cargo run --example failure_injection`

use da_core::{FailureModel, Fate, ProcessId};
use da_harness::scenario::{run_scenario, ScenarioConfig};
use da_harness::substrate::Substrate;
use da_simnet::{Engine, SimConfig};
use damulticast::{DynamicNetwork, ParamMap, TopicParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== stillborn vs per-observer at equal aliveness ===");
    println!("alive  stillborn(T2/T1/T0)   per-observer(T2/T1/T0)");
    for alive in [1.0, 0.8, 0.6, 0.4] {
        let mut still = [0.0; 3];
        let mut obs = [0.0; 3];
        let trials = 10;
        for seed in 0..trials {
            let mut config = ScenarioConfig::small();
            config.faults.failure = FailureModel::Stillborn {
                alive_fraction: alive,
            };
            let s = run_scenario(&config, Substrate::Sim, seed);
            config.faults.failure = FailureModel::PerObserver {
                alive_fraction: alive,
            };
            let o = run_scenario(&config, Substrate::Sim, seed);
            for i in 0..3 {
                still[i] += s.delivered_fraction[i] / trials as f64;
                obs[i] += o.delivered_fraction[i] / trials as f64;
            }
        }
        println!(
            "{alive:>5.1}  {:>5.2} {:>5.2} {:>5.2}      {:>5.2} {:>5.2} {:>5.2}",
            still[2], still[1], still[0], obs[2], obs[1], obs[0],
        );
    }
    println!("(per-observer keeps reliability high: independent retries mask failures)");

    println!("\n=== scripted crash wave on the dynamic stack ===");
    let sizes = [6usize, 24];
    let params = ParamMap::uniform(TopicParams::paper_default().with_g(12.0).with_a(3.0));
    let net = DynamicNetwork::linear(&sizes, params, 99)?;
    // Crash half the root group at round 30.
    let fates: Vec<Fate> = (0..3)
        .map(|i| Fate {
            round: 30,
            pid: ProcessId(i),
            crash: true,
        })
        .collect();
    let sim = SimConfig::default()
        .with_seed(99)
        .with_failures(FailureModel::Schedule(fates));
    let mut engine = Engine::new(sim, net.into_processes());

    engine.run_rounds(30); // healthy warm-up
    let healthy_links = count_live_links(&engine, sizes[0], sizes[1]);
    engine.run_rounds(60); // crash happens; maintenance repairs
    let repaired_links = count_live_links(&engine, sizes[0], sizes[1]);
    println!("live supertable entries before crash: {healthy_links}");
    println!("live supertable entries after repair: {repaired_links}");

    let id = engine
        .process_mut(ProcessId(18))
        .publish("after the crash wave");
    engine.run_rounds(40);
    let surviving_roots: Vec<ProcessId> = (0..6)
        .map(ProcessId)
        .filter(|&p| engine.status(p).is_alive())
        .collect();
    let got = surviving_roots
        .iter()
        .filter(|&&p| engine.process(p).has_delivered(id))
        .count();
    println!(
        "event published after the wave reached {got}/{} surviving roots",
        surviving_roots.len()
    );
    assert!(got >= 1, "maintenance must keep at least one live uplink");
    Ok(())
}

/// Counts supertable entries of the leaf group that point at live
/// processes.
fn count_live_links(
    engine: &Engine<damulticast::DaProcess>,
    root_size: usize,
    leaf_size: usize,
) -> usize {
    (root_size..root_size + leaf_size)
        .map(ProcessId::from_index)
        .map(|p| {
            engine.process(p).super_tables()[0]
                .entries()
                .iter()
                .filter(|e| engine.status(e.pid).is_alive())
                .count()
        })
        .sum()
}
