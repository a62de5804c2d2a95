//! Flight-recorder determinism: the canonicalised trace stream of the
//! live runtime is **bit-identical across worker counts** for the same
//! seed, at every lag window. The recorder's canonical order sorts by
//! `(tick, verdict, from, to, payload)`, which erases worker scheduling
//! and publication interleaving — so a run on one worker, which cannot
//! drift, must produce byte-for-byte the same event stream as a run on
//! eight workers drifting as far apart as the channel's latency floor
//! (1–4 ticks here) allows.
//!
//! The fault draws this relies on are all keyed on `(edge, tick)` or
//! `(pid, tick)` hashes, never on a shared mutable RNG stream, so loss,
//! variable latency, and churn are all fair game here. (`PerObserver`
//! failures are the documented exception — their draws are
//! observer-local — and are deliberately absent.)

use da_core::{ChannelConfig, FailureModel, Latency, RunConfig, TraceEvent};
use da_harness::experiments::trace::probe_trace;
use da_harness::substrate::Substrate;
use da_tape::{check_cases, prop_assert, prop_assert_eq};

/// One canonical stream for a pool width.
fn canonical_stream(population: u32, config: &RunConfig, workers: usize) -> Vec<TraceEvent> {
    probe_trace(Substrate::Live { workers }, population, config).canonical_events()
}

/// Satellite requirement: canonical trace streams are bit-identical
/// across worker counts × a lag window of 1–4 ticks for the same
/// seed, under loss, multi-tick latency, and churn all at once.
#[test]
fn canonical_stream_is_invariant_across_pool_shapes() {
    // Each case replays the same seeded probe run on four pool widths;
    // the probe is 16 ticks over ≤ 24 processes, so 64 cases stay fast.
    check_cases(
        "canonical_stream_is_invariant_across_pool_shapes",
        64,
        |t| {
            let seed = t.range(0u64..1_000_000);
            let population = t.range(4u32..=24);
            let success = t.pick(&[1.0f64, 0.8, 0.5]);
            let churned = t.pick(&[false, true]);
            let floor = t.range(1u64..=4);
            let mut config = RunConfig::default().with_seed(seed).with_channel(
                ChannelConfig::reliable()
                    .with_success_probability(success)
                    .with_latency(Latency::UniformRounds {
                        min: floor,
                        max: floor + 2,
                    }),
            );
            if churned {
                config = config.with_failures(FailureModel::Churn {
                    crash_probability: 0.05,
                    recover_probability: 0.3,
                });
            }

            let reference = canonical_stream(population, &config, 1);
            prop_assert!(
                !reference.is_empty(),
                "the probe workload always sends something"
            );
            for workers in [2usize, 4, 8] {
                let stream = canonical_stream(population, &config, workers);
                prop_assert_eq!(
                    &reference,
                    &stream,
                    "canonical stream changed with pool width (workers={}, floor={})",
                    workers,
                    floor
                );
            }
            Ok(())
        },
    );
}
