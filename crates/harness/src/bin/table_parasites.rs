//! Regenerates the **parasite-freedom comparison** (Sec. I and VI-E):
//! one root-topic publication per algorithm; daMulticast and gossip
//! multicast deliver to exactly the interested processes, broadcast and
//! hierarchical broadcast flood everyone.
//!
//! Usage: `cargo run --release -p da-harness --bin table_parasites
//! [--quick]`

use da_harness::experiments::{artifacts, Effort};
use da_harness::results_dir;

fn main() {
    artifacts::parasite_table(Effort::from_args(), &results_dir());
}
