//! Regenerates the **Sec. VI-E.1/VI-E.2 comparison tables**: measured and
//! analytic message counts and per-process memory for daMulticast and the
//! three baselines, on the same topology with the same `ln(S)+c` fanout
//! and reliable channels.
//!
//! Usage: `cargo run --release -p da-harness --bin table_complexity
//! [--quick]`

use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::complexity_table(Effort::from_args(), &results_dir());
}
