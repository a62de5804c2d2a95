//! Deterministic seed derivation.
//!
//! Every source of randomness in a run — simulated or live — is derived
//! from a single master seed so that runs are exactly reproducible:
//! identical seeds and configurations produce identical metrics (an
//! invariant covered by the workspace integration test suite).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// SplitMix64's increment: 2⁶⁴/φ, odd.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer, which diffuses single-bit differences
/// across the whole word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes `master` and a `stream` discriminator into an independent seed
/// using the splitmix64 finalizer.
///
/// ```
/// use da_core::seed::derive_seed;
/// assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
/// assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
/// ```
#[must_use]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    mix(master ^ stream.wrapping_mul(GAMMA))
}

/// A counter-mode SplitMix64 stream over one key: the k-th draw
/// (0-based) is the finalizer of `key + (k + 1)·γ`, so a draw costs one
/// add and one mix, and building the stream costs nothing. These are the
/// words [`SmallRng`]'s `seed_from_u64(key)` expands into its state; the
/// stream hands them out directly instead of stepping xoshiro over them.
///
/// Meant for short keyed streams — a send's fate, one or two draws — where
/// the key already carries the entropy: the stream has period 2⁶⁴ and
/// neighbouring keys overlap after a shift, so a long-lived generator
/// belongs on [`rng_from_seed`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream over `key`.
    #[must_use]
    pub fn new(key: u64) -> Self {
        SplitMix64 { state: key }
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }
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

/// Cuts `pool` to `min(k, len)` of its elements, drawn uniformly and in
/// random order: a partial Fisher–Yates with one draw per element kept and
/// none for those cut.
pub fn keep_random<T, R: RngCore + ?Sized>(pool: &mut Vec<T>, k: usize, rng: &mut R) {
    let kept = pool.partial_shuffle(rng, k).0.len();
    // The sample is the tail; shift it to the front.
    pool.drain(..pool.len() - kept);
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
    fn splitmix_draws_are_the_finalizer_of_key_plus_k_gammas() {
        for key in [0, 1, 42, u64::MAX, 0xED6E_0000_0000_0001] {
            let mut stream = SplitMix64::new(key);
            for k in 1..=5u64 {
                // Stream 0 leaves the master unmixed: derive_seed is the
                // bare finalizer there.
                let word = derive_seed(key.wrapping_add(k.wrapping_mul(GAMMA)), 0);
                assert_eq!(stream.next_u64(), word, "key {key:#x}, draw {k}");
            }
        }
    }

    #[test]
    fn engine_stream_zero_not_reused() {
        // Process 0 uses stream 1, never colliding with engine stream 0.
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
    }
}
