//! Offline shim for `rand` (0.8-era API surface).
//!
//! Implements exactly what this workspace uses: [`Rng`] (`gen`,
//! `gen_range`, `gen_bool`), [`SeedableRng::seed_from_u64`],
//! [`rngs::SmallRng`] (xoshiro256++ seeded via SplitMix64), and
//! [`seq::SliceRandom`] (`shuffle`, `partial_shuffle`, `choose`).
//! Everything is fully deterministic per seed — the property the
//! simulation kernel depends on.
//!
//! ## Divergences from crates.io
//!
//! * **Streams are not byte-compatible** with crates.io `rand`:
//!   distribution details differ (e.g. bounded integers use
//!   rejection-free multiply-shift reduction, `gen_bool` compares one
//!   `f64` draw). The workspace only requires determinism under a fixed
//!   shim, not cross-crate stream equality — statistical tests keep
//!   ≥ 3σ headroom for exactly this reason.
//! * `SmallRng` is always xoshiro256++; the real crate picks a
//!   platform-dependent generator, and `seed_from_u64` expansion
//!   (SplitMix64 here) differs accordingly.
//! * `gen` draws the integer types and `f64`, and `gen_range` takes
//!   integer ranges and half-open `f64` ranges: what the code draws.
//! * No `thread_rng`/`OsRng` (nothing in the workspace may draw from
//!   ambient entropy), no `distributions` module, no `Fill`, no
//!   `gen_ratio`, and `SliceRandom` offers only `shuffle`,
//!   `partial_shuffle` and `choose`.
//! * `partial_shuffle` keeps rand 0.8's contract and loop — the sample is
//!   the slice's tail, returned first, after exactly `min(amount, len)`
//!   bounded draws, so below `len` its swaps are the first `amount` of
//!   `shuffle`'s — but every pick goes through this shim's bounded-integer
//!   reduction, so the elements it picks for a seed differ from
//!   crates.io's.
//! * [`SeedableRng`] exposes only `seed_from_u64` — full-width
//!   `from_seed` arrays are absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random `u64`s (mirror of `rand_core::RngCore`).
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from an `RngCore` (stands in for
/// `rand::distributions::Standard`).
pub trait FromRandom {
    /// Draws one uniformly distributed value.
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! from_random_int {
    ($($t:ty),* $(,)?) => {$(
        impl FromRandom for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless)]
            fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

from_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRandom for f64 {
    #[allow(clippy::cast_precision_loss)]
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] accepts (stands in for
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange {
    /// The element type produced by sampling.
    type Output;
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! sample_range_int {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.abs_diff(self.start) as u64;
                let offset = reduce64(rng.next_u64(), span);
                self.start.wrapping_add(offset as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = hi.abs_diff(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let offset = reduce64(rng.next_u64(), span + 1);
                lo.wrapping_add(offset as $t)
            }
        }
    )*};
}

sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::from_random(rng) * (self.end - self.start)
    }
}

/// Maps 64 random bits onto `[0, n)` without modulo bias hot spots
/// (Lemire's multiply-shift reduction).
fn reduce64(x: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((u128::from(x) * u128::from(n)) >> 64) as u64
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: FromRandom>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_random(self)
    }

    /// Draws uniformly from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    ///
    /// # Panics
    /// Panics if `p` is NaN.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(!p.is_nan(), "gen_bool: p is NaN");
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        f64::from_random(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed (only `seed_from_u64` is used here).
pub trait SeedableRng: Sized {
    /// Builds an RNG whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic RNG (xoshiro256++).
    ///
    /// Like the real `SmallRng`, this is *not* cryptographically secure
    /// and its stream is not guaranteed stable across shim versions.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related sampling (mirror of `rand::seq`).
pub mod seq {
    use super::{RngCore, SampleRange};

    /// Random operations on slices (`shuffle`, `partial_shuffle`,
    /// `choose`).
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Picks `min(amount, len)` elements uniformly at random, in
        /// random order, with exactly that many draws: a Fisher–Yates
        /// shuffle stopped once the sample is complete. Returns
        /// `(sample, rest)`; the sample is the slice's tail, the rest its
        /// head in an unspecified order.
        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [Self::Item], &mut [Self::Item]);

        /// Returns one uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (0..=i).sample_from(rng);
                self.swap(i, j);
            }
        }

        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [T], &mut [T]) {
            let end = self.len().saturating_sub(amount);
            // Everything past `i` is already drawn; `i` takes a uniform
            // pick from what is left, itself included.
            for i in (end..self.len()).rev() {
                let j = (0..=i).sample_from(rng);
                self.swap(i, j);
            }
            let (rest, sample) = self.split_at_mut(end);
            (sample, rest)
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = (0..self.len()).sample_from(rng);
                self.get(i)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(rng.gen_bool(1.5), "clamped above 1");
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "≈30%, got {hits}");
    }

    #[test]
    fn shuffle_is_permutation_and_choose_in_slice() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.contains(v.choose(&mut rng).unwrap()));
        assert!(Vec::<u32>::new().choose(&mut rng).is_none());
    }

    #[test]
    fn partial_shuffle_permutes_with_one_draw_per_pick() {
        use super::RngCore;
        let mut rng = SmallRng::seed_from_u64(4);
        for (len, amount) in [(28, 8), (19, 7), (5, 5), (3, 10), (7, 0), (0, 3)] {
            let mut v: Vec<u32> = (0..len).collect();
            let mut by_hand = rng.clone();
            let (sample, rest) = v.partial_shuffle(&mut rng, amount);
            let picked = amount.min(len as usize);
            assert_eq!((sample.len(), rest.len()), (picked, len as usize - picked));
            // The sample is the tail, returned first.
            let tail = sample.to_vec();
            assert_eq!(v[len as usize - picked..], tail[..]);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..len).collect::<Vec<_>>(), "a permutation");
            for _ in 0..picked {
                by_hand.next_u64();
            }
            assert_eq!(rng.next_u64(), by_hand.next_u64(), "{picked} draws");
        }
    }

    #[test]
    fn partial_shuffle_fills_each_sample_position_uniformly() {
        const LEN: usize = 6;
        const AMOUNT: usize = 3;
        const TRIALS: usize = 30_000;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [[0usize; LEN]; AMOUNT];
        for _ in 0..TRIALS {
            let mut v: Vec<usize> = (0..LEN).collect();
            let (sample, _) = v.partial_shuffle(&mut rng, AMOUNT);
            for (position, &value) in sample.iter().enumerate() {
                counts[position][value] += 1;
            }
        }
        let p = 1.0 / LEN as f64;
        let expected = TRIALS as f64 * p;
        let sigma = (TRIALS as f64 * p * (1.0 - p)).sqrt();
        for (position, row) in counts.iter().enumerate() {
            for (value, &n) in row.iter().enumerate() {
                assert!(
                    (n as f64 - expected).abs() < 3.0 * sigma,
                    "position {position} held {value} {n} times, expected {expected:.0} ± {:.0}",
                    3.0 * sigma
                );
            }
        }
    }
}
