//! Runs the **temporal-dynamics extensions**: propagation latency
//! (rounds-to-coverage vs group size) and delivery under sustained churn
//! (crash/recovery every round, stationary aliveness 75%).
//!
//! Usage: `cargo run --release -p da-harness --bin fig_dynamics [--quick]`

use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::dynamics(Effort::from_args(), &results_dir());
}
