//! Regenerates **Fig. 9** of the paper: number of inter-group events
//! (T2→T1 and T1→T0) as the fraction of alive processes varies, under
//! stillborn failures. The paper's observation: even with half the
//! processes failed, at least one event reaches the supergroup.
//!
//! Usage: `cargo run --release -p da-harness --bin fig09_intergroup
//! [--quick]`

use da_harness::experiments::figures::FigureKind;
use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::figure(
        FigureKind::Fig09Intergroup,
        Effort::from_args(),
        &results_dir(),
    );
}
