//! Regenerates the **`O(S·ln S)` scaling claim** (Sec. VI-B): total event
//! messages per publication vs the leaf-group size, with the normalised
//! `messages / (S·lnS)` ratio alongside — flat-or-falling confirms the
//! complexity class.
//!
//! Usage: `cargo run --release -p da-harness --bin fig_scaling [--quick]`

use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::scaling(Effort::from_args(), &results_dir());
}
