//! Runs the four **ablations**: the `g` election weight, the supertable
//! size `z`, the fanout rule, and the maintenance cadence (ARCHITECTURE.md,
//! "Where the paper's figures live").
//!
//! Usage: `cargo run --release -p da-harness --bin ablations [--quick]`

use da_harness::experiments::ablations::{
    ablation_fanout, ablation_ga, ablation_maintenance, ablation_z,
};
use da_harness::experiments::Effort;
use da_harness::{plot, results_dir};

fn main() {
    let effort = Effort::from_args();
    let base = effort.scenario();
    let trials = effort.trials();
    let dir = results_dir();

    let ga = ablation_ga(&base, &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0], trials, 0xAB1A);
    print!("{}", ga.to_markdown());
    print!("{}", plot::ascii_plot(&ga, 60, 12));
    ga.write_to(&dir).expect("write results");

    let z = ablation_z(&base, &[1, 2, 3, 5, 8], trials, 0xAB1B);
    print!("{}", z.to_markdown());
    z.write_to(&dir).expect("write results");

    let fanout = ablation_fanout(&base, trials, 0xAB1C);
    print!("{}", fanout.to_markdown());
    fanout.write_to(&dir).expect("write results");

    let maintenance = ablation_maintenance(&[2, 5, 10, 20, 40], trials, 0xAB1D);
    print!("{}", maintenance.to_markdown());
    maintenance.write_to(&dir).expect("write results");

    println!("\nwritten to {}", dir.display());
}
