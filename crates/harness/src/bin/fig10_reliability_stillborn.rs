//! Regenerates **Fig. 10** of the paper: fraction of processes receiving a
//! published event, per group, under stillborn failures (process state
//! drawn once before round 0, never replaced).
//!
//! Usage: `cargo run --release -p da-harness --bin
//! fig10_reliability_stillborn [--quick]`

use da_harness::experiments::figures::FigureKind;
use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::figure(
        FigureKind::Fig10ReliabilityStillborn,
        Effort::from_args(),
        &results_dir(),
    );
}
