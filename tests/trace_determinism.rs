//! Flight-recorder determinism: the canonicalised trace stream of the
//! live runtime is **bit-identical across worker counts and lag
//! windows** for the same seed. The recorder's canonical order sorts by
//! `(tick, verdict, from, to, payload)`, which erases worker scheduling
//! and publication interleaving — so a run on one worker with a tight
//! lag window must produce byte-for-byte the same event stream as a run
//! on four workers drifting up to `max_lag = 4` ticks apart.
//!
//! The fault draws this relies on are all keyed on `(edge, tick)` or
//! `(pid, tick)` hashes, never on a shared mutable RNG stream, so loss,
//! variable latency, and churn are all fair game here. (`PerObserver`
//! failures are the documented exception — their draws are
//! observer-local — and are deliberately absent.)

use da_core::{ChannelConfig, FailureModel, FaultConfig, Latency, TraceEvent};
use da_harness::experiments::trace::live_probe_trace;
use proptest::prelude::*;

/// One canonical stream for a pool shape.
fn canonical_stream(
    population: u32,
    faults: &FaultConfig,
    seed: u64,
    workers: usize,
    max_lag: u64,
) -> Vec<TraceEvent> {
    live_probe_trace(population, faults, seed, workers, max_lag).canonical_events()
}

proptest! {
    // Each case replays the same seeded probe run on five pool shapes;
    // the probe is 16 ticks over ≤ 24 processes, so 64 cases stay fast.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite requirement: canonical trace streams are bit-identical
    /// across worker counts × `max_lag ∈ {1, 4}` for the same seed,
    /// under loss, multi-tick latency, and churn all at once.
    #[test]
    fn canonical_stream_is_invariant_across_pool_shapes(
        seed in 0u64..1_000_000,
        population in 4u32..=24,
        success in prop_oneof![Just(1.0f64), Just(0.8), Just(0.5)],
        churned in prop_oneof![Just(false), Just(true)],
    ) {
        let mut faults = FaultConfig::new().with_channel(
            ChannelConfig::reliable()
                .with_success_probability(success)
                .with_latency(Latency::UniformRounds { min: 1, max: 3 }),
        );
        if churned {
            faults = faults.with_failures(FailureModel::Churn {
                crash_probability: 0.05,
                recover_probability: 0.3,
            });
        }

        let reference = canonical_stream(population, &faults, seed, 1, 1);
        prop_assert!(
            !reference.is_empty(),
            "the probe workload always sends something"
        );
        for workers in [2usize, 4, 8] {
            for max_lag in [1u64, 4] {
                let stream = canonical_stream(population, &faults, seed, workers, max_lag);
                prop_assert_eq!(
                    &reference,
                    &stream,
                    "canonical stream changed with pool shape (workers={}, max_lag={})",
                    workers,
                    max_lag
                );
            }
        }
    }
}
