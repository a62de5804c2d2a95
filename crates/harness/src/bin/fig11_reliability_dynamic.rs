//! Regenerates **Fig. 11** of the paper: fraction of processes receiving a
//! published event, per group, under the *per-observer* failure model ("a
//! process can appear to be failed for a process while appearing alive for
//! another one"). The paper's observation: reliability is markedly better
//! than Fig. 10's stillborn regime at equal aliveness.
//!
//! Usage: `cargo run --release -p da-harness --bin
//! fig11_reliability_dynamic [--quick]`

use da_harness::experiments::figures::FigureKind;
use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::figure(
        FigureKind::Fig11ReliabilityDynamic,
        Effort::from_args(),
        &results_dir(),
    );
}
