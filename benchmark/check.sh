#!/usr/bin/env bash
# Gates for the standalone benchmark package, which the root workspace's
# CI (fmt / clippy / test from the repository root) does not reach:
# formatting, lints, unit tests, and a --smoke pass of every workload in
# both modes whose output is checked against ../BENCHMARK.json.
#
# Run from anywhere: benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --release --quiet --manifest-path "$manifest"
cargo build --offline --release --quiet --manifest-path "$manifest"

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/da-benchmark"
for workload in sim_wave live_wave metro_flood metro_churn; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed 1 --seconds 1 --trace "$trace" --smoke \
            | tail -n 1 \
            | python3 benchmark/check_output.py "$trace"
        echo "smoke ok: $workload --trace $trace"
    done
done
