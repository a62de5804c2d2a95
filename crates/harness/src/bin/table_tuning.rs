//! Regenerates the **Sec. VI-E.3 tuning table**: the `c` ranges over which
//! daMulticast can match each baseline's reliability, the matching `c1`
//! constants, and the supertable-size bounds (Appendix eqs. 19, 25, 30).
//!
//! Also regenerates the *measured* side of the comparison: the four
//! algorithms' delivery reliability under stillborn failures.
//!
//! Usage: `cargo run --release -p da-harness --bin table_tuning [--quick]`

use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    let (effort, dir) = (Effort::from_args(), results_dir());
    artifacts::tuning_table(effort, &dir);
    artifacts::reliability_table(effort, &dir);
}
