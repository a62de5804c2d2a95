//! Runs the four **ablations**: the `g` election weight, the supertable
//! size `z`, the fanout rule, and the maintenance cadence (ARCHITECTURE.md,
//! "Where the paper's figures live").
//!
//! Usage: `cargo run --release -p da-harness --bin ablations [--quick]`

use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::ablations(Effort::from_args(), &results_dir());
}
