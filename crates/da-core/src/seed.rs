//! Deterministic seed derivation.
//!
//! Every source of randomness in a run — simulated or live — is derived
//! from a single master seed so that runs are exactly reproducible:
//! identical seeds and configurations produce identical metrics (an
//! invariant covered by the workspace integration test suite).

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Mixes `master` and a `stream` discriminator into an independent seed
/// using the splitmix64 finalizer, which diffuses single-bit differences
/// across the whole word.
///
/// ```
/// use da_core::seed::derive_seed;
/// assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
/// assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
/// ```
#[must_use]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`SmallRng`] seeded directly from a 64-bit seed.
#[must_use]
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// The RNG stream of process `pid` for a run with the given master seed
/// — the convention **both substrates** use, so a process keeps its
/// stream whether it executes under the simulator or the live runtime.
///
/// Streams of different processes are independent, and independent of
/// the engine's own channel/failure stream (stream 0 is reserved for
/// the engine; processes are offset by 1).
#[must_use]
pub fn rng_for_process(master: u64, pid: crate::process::ProcessId) -> SmallRng {
    rng_from_seed(derive_seed(master, u64::from(pid.0) + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;
    use rand::Rng;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(42, 1);
        let b = derive_seed(42, 2);
        assert_ne!(a, b);
        // Nearby masters also diverge.
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    #[test]
    fn rng_from_seed_is_reproducible() {
        let mut r1 = rng_from_seed(99);
        let mut r2 = rng_from_seed(99);
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn process_rngs_are_reproducible() {
        let mut r1 = rng_for_process(99, ProcessId(5));
        let mut r2 = rng_for_process(99, ProcessId(5));
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn process_rngs_differ_between_processes() {
        let mut r1 = rng_for_process(99, ProcessId(0));
        let mut r2 = rng_for_process(99, ProcessId(1));
        let a: Vec<u64> = (0..8).map(|_| r1.gen()).collect();
        let b: Vec<u64> = (0..8).map(|_| r2.gen()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn engine_stream_zero_not_reused() {
        // Process 0 uses stream 1, never colliding with engine stream 0.
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
    }
}
