//! The paper's tuning trade-off, hands on: Sec. V-B exposes `g`, `a` and
//! `z` so applications can trade inter-group message cost for reliability,
//! and Sec. VI-E.3 / the Appendix derive the settings at which daMulticast
//! matches the baselines.
//!
//! This example sweeps `g` on a live simulation (measured cost vs measured
//! reliability) and then prints what the analytical model prescribes —
//! showing analysis and simulation agree on the shape.
//!
//! Run with: `cargo run --release --example tuning_tradeoff`

use da_analysis::complexity::GroupLevel;
use da_analysis::reliability::{damulticast_reliability, pit_derived};
use da_analysis::tuning;
use da_core::FailureModel;
use da_harness::scenario::{run_scenario, ScenarioConfig};
use da_harness::substrate::Substrate;

fn main() {
    println!("=== measured: sweeping the election weight g ===");
    println!("g      inter-group arrivals   root delivery");
    for g in [1.0, 2.0, 5.0, 10.0, 20.0] {
        let mut config = ScenarioConfig::small();
        config.faults.failure = FailureModel::None;
        config.params.g = g;
        let trials = 12;
        let mut arrivals = 0.0;
        let mut root = 0.0;
        for seed in 0..trials {
            let out = run_scenario(&config, Substrate::Sim, seed);
            arrivals += out.inter_in.iter().sum::<f64>() / trials as f64;
            root += out.delivered_fraction[0] / trials as f64;
        }
        println!("{g:>4.0}   {arrivals:>10.2}           {root:>8.2}");
    }
    println!("(cost grows linearly in g; reliability saturates — the paper's trade-off)");

    println!("\n=== analytic: the same trade-off in closed form ===");
    println!("g      pit(T2->T1)   end-to-end reliability");
    for g in [1.0, 2.0, 5.0, 10.0, 20.0] {
        let chain = [
            GroupLevel {
                g,
                ..GroupLevel::paper_default(1000)
            },
            GroupLevel {
                g,
                ..GroupLevel::paper_default(100)
            },
            GroupLevel {
                g,
                ..GroupLevel::paper_default(10)
            },
        ];
        println!(
            "{g:>4.0}   {:>8.4}       {:>8.4}",
            pit_derived(&chain[0]),
            damulticast_reliability(&chain)
        );
    }

    println!("\n=== matching the baselines (Appendix) ===");
    let pit = 0.99;
    println!("with pit = {pit}:");
    let range = tuning::multicast_c_range(pit);
    println!(
        "  vs gossip multicast: valid c in [{:.3}, {:.3}); at c = 2 use c1 = {:.3}",
        range.lo,
        range.hi,
        tuning::c1_vs_multicast(2.0, pit).expect("2.0 is in range"),
    );
    println!(
        "  memory still wins while z <= {:.1} (paper uses z = 3)",
        tuning::z_bound_vs_multicast(3, 1000, 2.0, pit)
    );
    let range = tuning::broadcast_c_range(3, pit);
    println!(
        "  vs gossip broadcast: valid c in [{:.3}, {:.3}); at c = 1 use c1 = {:.3}",
        range.lo,
        range.hi,
        tuning::c1_vs_broadcast(1.0, 3, pit).expect("1.0 is in range"),
    );
    let range = tuning::hierarchical_c_range(3, 33, pit);
    println!(
        "  vs hierarchical (N = 33): valid c in [{:.3}, {:.3})",
        range.lo, range.hi,
    );
}
