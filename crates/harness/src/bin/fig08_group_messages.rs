//! Regenerates **Fig. 8** of the paper: number of events sent within each
//! group (T2/T1/T0) as the fraction of alive processes varies, under
//! stillborn failures.
//!
//! Usage: `cargo run --release -p da-harness --bin fig08_group_messages
//! [--quick]`

use da_harness::experiments::figures::FigureKind;
use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::figure(
        FigureKind::Fig08GroupMessages,
        Effort::from_args(),
        &results_dir(),
    );
}
