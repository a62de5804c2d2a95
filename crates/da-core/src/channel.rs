//! The unreliable-channel fault model (Sec. III-A of the paper),
//! shared by both execution substrates.
//!
//! A channel is parameterised by a per-send survival probability and a
//! latency distribution measured in virtual-time units (gossip rounds on
//! the simulator, scheduler ticks on the live runtime). The model is
//! *sampled*, never enforced: [`ChannelConfig::sample_fate`] draws the
//! fate of one send from a caller-supplied RNG, so each substrate keeps
//! its own notion of which stream the draws come from —
//! `da_simnet::Engine` uses its single engine stream, `da_runtime`'s
//! `FaultyRouter` derives one stateless RNG per send, keyed by the
//! directed edge, the send tick, and the within-tick occurrence
//! ([`EdgeRngs`]). That keyed RNG is a counter-mode SplitMix64 stream,
//! so a send whose sender prefix is cached costs one key round and one
//! mix per draw.

use crate::seed::{derive_seed, SplitMix64};
use rand::Rng;

/// Message latency, measured in virtual-time units (gossip rounds on the
/// simulator, ticks on the live runtime).
///
/// The paper's simulation is round-synchronous: a message sent in round
/// `n` is available at the start of round `n + 1`, which is
/// [`Latency::Fixed`]`(1)`. [`Latency::UniformRounds`] models jittery
/// links where delivery may straggle by several rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// Every message takes exactly this many rounds (minimum 1).
    Fixed(u64),
    /// Latency drawn uniformly from `min..=max` rounds per message.
    UniformRounds {
        /// Lower bound (inclusive, minimum 1).
        min: u64,
        /// Upper bound (inclusive).
        max: u64,
    },
}

impl Latency {
    /// The fastest delivery this model can ever sample, in rounds/ticks
    /// (≥ 1, matching the clamping [`ChannelConfig::sample_fate`]
    /// applies).
    ///
    /// Schedulers use this as a *safety bound*: a receiver that has seen
    /// every send up to virtual time `t` is guaranteed to already hold
    /// every message due at or before `t + min_rounds()`, so it may run
    /// that far ahead of its slowest peer without reordering deliveries.
    fn min_rounds(&self) -> u64 {
        match self {
            Latency::Fixed(l) => (*l).max(1),
            Latency::UniformRounds { min, .. } => (*min).max(1),
        }
    }

    /// The slowest delivery this model can ever sample, in rounds/ticks
    /// (≥ its fastest, with the same degenerate-bound clamping
    /// [`ChannelConfig::sample_fate`] applies).
    ///
    /// Where the fastest delivery bounds how far a scheduler may run
    /// *ahead*, `max_rounds` bounds how far into the future a surviving
    /// send can land — the sizing bound for a fixed-capacity delay wheel.
    fn max_rounds(&self) -> u64 {
        match self {
            Latency::Fixed(l) => (*l).max(1),
            Latency::UniformRounds { min, max } => (*max).max((*min).max(1)),
        }
    }
}

impl Default for Latency {
    fn default() -> Self {
        Latency::Fixed(1)
    }
}

/// The sampled fate of one send: lost on the wire, or delivered after a
/// latency (in virtual-time units, always ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFate {
    /// The channel dropped the message.
    Lost,
    /// The message survives and arrives `latency` rounds/ticks after it
    /// was sent.
    Deliver {
        /// Rounds/ticks between send and delivery (≥ 1).
        latency: u64,
    },
}

/// Configuration of the unreliable best-effort channels (Sec. III-A of the
/// paper; the simulation uses a flat success probability of 0.85,
/// Sec. VII-A).
///
/// ```
/// use da_core::channel::ChannelConfig;
/// let paper = ChannelConfig::paper_default();
/// assert!((paper.success_probability - 0.85).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Probability that a sent message survives the channel
    /// (`p_succ` in the paper's analysis).
    pub success_probability: f64,
    /// Delivery latency model.
    pub latency: Latency,
}

impl ChannelConfig {
    /// Perfectly reliable channels with one-round latency.
    #[must_use]
    pub fn reliable() -> Self {
        ChannelConfig {
            success_probability: 1.0,
            latency: Latency::default(),
        }
    }

    /// The paper's simulation setting: `p_succ = 0.85`, one-round latency
    /// ("The probability for an event to be received is set to an arbitrary
    /// value of 0.85, to simulate unreliable, i.e. best effort, channels").
    #[must_use]
    pub fn paper_default() -> Self {
        ChannelConfig {
            success_probability: 0.85,
            latency: Latency::default(),
        }
    }

    /// Sets the success probability, clamping into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN: no clamp gives it a meaning, and a NaN
    /// channel would lose every send.
    #[must_use]
    pub fn with_success_probability(mut self, p: f64) -> Self {
        assert!(
            !p.is_nan(),
            "the success probability must be a number (got {p})"
        );
        self.success_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: Latency) -> Self {
        self.latency = latency;
        self
    }

    /// True when the model can neither lose nor reorder anything: every
    /// send survives and takes exactly one round — the configuration
    /// under which a faulty transport must behave byte-for-byte like a
    /// perfect one.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.success_probability >= 1.0 && self.latency == Latency::Fixed(1)
    }

    /// The fastest delivery this channel can ever sample (its latency
    /// model's floor, ≥ 1) — the slack a bounded-lag scheduler may
    /// exploit between workers.
    ///
    /// ```
    /// use da_core::channel::{ChannelConfig, Latency};
    /// let floor = |latency| ChannelConfig::reliable().with_latency(latency).min_latency();
    /// assert_eq!(floor(Latency::Fixed(3)), 3);
    /// assert_eq!(floor(Latency::Fixed(0)), 1, "clamped like sampling");
    /// assert_eq!(floor(Latency::UniformRounds { min: 2, max: 5 }), 2);
    /// ```
    #[must_use]
    pub fn min_latency(&self) -> u64 {
        self.latency.min_rounds()
    }

    /// The slowest delivery this channel can ever sample (its latency
    /// model's ceiling, ≥ its floor) — the capacity a fixed-size delay
    /// wheel needs to hold every in-flight envelope.
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        self.latency.max_rounds()
    }

    /// Draws the fate of one send from `rng`.
    ///
    /// The draw order is part of the model's contract (deterministic
    /// replays depend on it): at most one Bernoulli draw for loss —
    /// skipped entirely when `success_probability ≥ 1` — then at most
    /// one uniform draw for latency — skipped for [`Latency::Fixed`].
    ///
    /// ```
    /// use da_core::channel::{ChannelConfig, ChannelFate};
    /// use da_core::seed::rng_from_seed;
    ///
    /// let mut rng = rng_from_seed(7);
    /// let fate = ChannelConfig::reliable().sample_fate(&mut rng);
    /// assert_eq!(fate, ChannelFate::Deliver { latency: 1 });
    /// ```
    pub fn sample_fate<R: Rng>(&self, rng: &mut R) -> ChannelFate {
        let survives =
            self.success_probability >= 1.0 || rng.gen_bool(self.success_probability.max(0.0));
        if !survives {
            return ChannelFate::Lost;
        }
        let latency = match self.latency {
            Latency::Fixed(l) => l.max(1),
            Latency::UniformRounds { min, max } => {
                let lo = min.max(1);
                let hi = max.max(lo);
                rng.gen_range(lo..=hi)
            }
        };
        ChannelFate::Deliver { latency }
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig::reliable()
    }
}

/// Stream discriminator reserved for edge RNGs, far away from the
/// engine stream (0) and the per-process streams (`pid + 1`).
const EDGE_STREAM_TAG: u64 = 0xED6E_0000_0000_0001;

/// Stateless deterministic per-send RNGs for the live runtime's edge
/// draws: every send's fate comes from a fresh [`SplitMix64`] stream
/// keyed by `(master seed, from, send tick, to, within-tick occurrence)`.
///
/// The live runtime samples channel fates on the sending side, where
/// thread interleaving would make a single shared stream
/// schedule-dependent. Keying the draw by the *edge* removes the worker
/// from the picture; keying it additionally by `(tick, occurrence)` —
/// counter mode, the same positional-determinism trick
/// `FailurePlan::churn_flips` uses for lifecycle draws — removes the
/// *stream position* too. The fate of the k-th same-edge send within a
/// tick is a pure function of the key, so resident state is a single
/// `u64` regardless of how many distinct edges a run touches.
///
/// The key is three [`derive_seed`] rounds: `from`, then `tick`, then
/// `to` and `occurrence` packed into one word (`to << 32 | occurrence`;
/// both are `u32`s, so the packing is injective). Everything a sender's
/// draws within one tick share is a prefix:
/// [`sender_seed`](Self::sender_seed) is the first two rounds, and a
/// caller routing a run of sends from one process derives it once and
/// finishes each send with [`draw_rng_from`](Self::draw_rng_from) — one
/// round for the key, then one SplitMix64 mix per draw.
/// [`draw_rng`](Self::draw_rng) is the two composed.
///
/// **Draw-order version 3.** Version 1 drew from sequential per-edge
/// streams; version 2 keyed a fresh xoshiro256++ per send through four
/// rounds `(from, to, tick, occurrence)`; version 3 reorders the key so
/// the tick joins the sender's prefix and draws the key's SplitMix64
/// words directly. Each version re-rolled every live fate once: the
/// per-seed fates are fully deterministic and worker-count-independent,
/// but not byte-identical to the previous version's. Sim-vs-live parity
/// is unaffected — the simulator draws fates on its own engine stream,
/// and every cross-substrate comparison in the workspace is over
/// delivered sets or 3σ reliability bands, not live fate bytes.
///
/// ```
/// use da_core::channel::EdgeRngs;
/// use rand::Rng as _;
///
/// let a = EdgeRngs::new(42);
/// let b = EdgeRngs::new(42);
/// let draw_a: u64 = a.draw_rng(3, 9, 5, 0).gen();
/// let draw_b: u64 = b.draw_rng(3, 9, 5, 0).gen();
/// assert_eq!(draw_a, draw_b, "same master seed, same key, same draw");
/// assert_eq!(draw_a, 0xf432_09c5_ec44_6bbf, "draw-order v3");
/// let split: u64 = a.draw_rng_from(a.sender_seed(3, 5), 9, 0).gen();
/// assert_eq!(draw_a, split, "the sender's prefix, derived once");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EdgeRngs {
    edge_master: u64,
}

impl EdgeRngs {
    /// Creates the draw family for a run with the given master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        EdgeRngs {
            edge_master: derive_seed(master_seed, EDGE_STREAM_TAG),
        }
    }

    /// The seed every draw on an edge out of `from` in send tick `tick`
    /// starts from: the part of the key a sender's sends within one tick
    /// share.
    #[must_use]
    pub fn sender_seed(&self, from: u64, tick: u64) -> u64 {
        derive_seed(derive_seed(self.edge_master, from), tick)
    }

    /// [`draw_rng`](Self::draw_rng) from a
    /// [`sender_seed`](Self::sender_seed): the RNG of the sender's
    /// `occurrence`-th message to `to` within that tick. `to` and
    /// `occurrence` must fit in a `u32` each.
    #[must_use]
    pub fn draw_rng_from(&self, sender_seed: u64, to: u64, occurrence: u64) -> SplitMix64 {
        debug_assert!(
            to <= u64::from(u32::MAX) && occurrence <= u64::from(u32::MAX),
            "the key packs `to` and `occurrence` as u32s (got {to}, {occurrence})"
        );
        SplitMix64::new(derive_seed(sender_seed, to << 32 | occurrence))
    }

    /// The RNG for one send: the `occurrence`-th message (0-based) on
    /// the directed edge `from → to` within send tick `tick`. Pure in
    /// its arguments — no state is read or written, so the same key
    /// yields the same draws on any worker striping, in any order, any
    /// number of times.
    #[must_use]
    pub fn draw_rng(&self, from: u64, to: u64, tick: u64, occurrence: u64) -> SplitMix64 {
        self.draw_rng_from(self.sender_seed(from, tick), to, occurrence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::rng_from_seed;

    #[test]
    fn max_rounds_is_clamped_like_sampling() {
        assert_eq!(Latency::Fixed(3).max_rounds(), 3);
        assert_eq!(Latency::Fixed(0).max_rounds(), 1, "clamped like sampling");
        assert_eq!(Latency::UniformRounds { min: 2, max: 5 }.max_rounds(), 5);
        assert_eq!(Latency::UniformRounds { min: 4, max: 2 }.max_rounds(), 4);
    }

    #[test]
    fn defaults() {
        let c = ChannelConfig::default();
        assert!((c.success_probability - 1.0).abs() < f64::EPSILON);
        assert_eq!(c.latency, Latency::Fixed(1));
        assert!(c.is_perfect());
    }

    #[test]
    fn paper_default_is_085() {
        assert!((ChannelConfig::paper_default().success_probability - 0.85).abs() < 1e-12);
        assert!(!ChannelConfig::paper_default().is_perfect());
    }

    #[test]
    fn builder_clamps() {
        let c = ChannelConfig::default().with_success_probability(1.5);
        assert!((c.success_probability - 1.0).abs() < f64::EPSILON);
        let c = ChannelConfig::default().with_success_probability(-0.2);
        assert!(c.success_probability.abs() < f64::EPSILON);
    }

    /// A NaN probability has no clamp: let through, it would lose every
    /// send (`gen_bool(NaN.max(0.0))` is `gen_bool(0.0)`).
    #[test]
    #[should_panic(expected = "the success probability must be a number (got NaN)")]
    fn builder_rejects_nan() {
        let _ = ChannelConfig::default().with_success_probability(f64::NAN);
    }

    #[test]
    fn latency_builder() {
        let c = ChannelConfig::default().with_latency(Latency::UniformRounds { min: 1, max: 3 });
        assert_eq!(c.latency, Latency::UniformRounds { min: 1, max: 3 });
        assert!(!c.is_perfect());
    }

    #[test]
    fn perfect_channel_draws_nothing() {
        // A perfect channel must consume zero randomness, so replays that
        // toggle it cannot shift other streams.
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(1);
        let fate = ChannelConfig::reliable().sample_fate(&mut a);
        assert_eq!(fate, ChannelFate::Deliver { latency: 1 });
        use rand::Rng as _;
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn lossy_channel_loses_roughly_fraction() {
        let config = ChannelConfig::default().with_success_probability(0.5);
        let mut rng = rng_from_seed(5);
        let lost = (0..1000)
            .filter(|_| config.sample_fate(&mut rng) == ChannelFate::Lost)
            .count();
        assert!((350..650).contains(&lost), "lost {lost} of 1000");
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let config =
            ChannelConfig::default().with_latency(Latency::UniformRounds { min: 2, max: 5 });
        let mut rng = rng_from_seed(9);
        for _ in 0..500 {
            match config.sample_fate(&mut rng) {
                ChannelFate::Deliver { latency } => assert!((2..=5).contains(&latency)),
                ChannelFate::Lost => panic!("reliable channel lost a message"),
            }
        }
    }

    #[test]
    fn fixed_zero_latency_clamps_to_one() {
        let config = ChannelConfig::default().with_latency(Latency::Fixed(0));
        let mut rng = rng_from_seed(2);
        assert_eq!(
            config.sample_fate(&mut rng),
            ChannelFate::Deliver { latency: 1 }
        );
    }

    #[test]
    fn edge_draws_are_independent_and_reproducible() {
        use rand::Rng as _;
        let rngs = EdgeRngs::new(7);
        let ab: Vec<u64> = (0..8).map(|k| rngs.draw_rng(0, 1, 3, k).gen()).collect();
        let ba: Vec<u64> = (0..8).map(|k| rngs.draw_rng(1, 0, 3, k).gen()).collect();
        assert_ne!(ab, ba, "direction matters");

        let again = EdgeRngs::new(7);
        let ab2: Vec<u64> = (0..8).map(|k| again.draw_rng(0, 1, 3, k).gen()).collect();
        assert_eq!(ab, ab2, "same master seed, same keys, same draws");
    }

    #[test]
    fn edge_draws_are_keyed_by_tick_and_occurrence() {
        use rand::Rng as _;
        let rngs = EdgeRngs::new(7);
        let base: u64 = rngs.draw_rng(0, 1, 3, 0).gen();
        assert_ne!(base, rngs.draw_rng(0, 1, 4, 0).gen(), "tick matters");
        assert_ne!(base, rngs.draw_rng(0, 1, 3, 1).gen(), "occurrence matters");
        // Stateless: re-drawing the same key any number of times, in any
        // order, always replays the same stream from the top.
        let replay: u64 = rngs.draw_rng(0, 1, 3, 0).gen();
        assert_eq!(base, replay);
    }

    #[test]
    fn edge_rngs_resident_state_is_one_word() {
        // The whole point of counter-mode draws: resident state is O(1)
        // in the number of edges touched — the struct IS the seed.
        assert_eq!(std::mem::size_of::<EdgeRngs>(), 8);
    }

    #[test]
    fn max_latency_tracks_the_latency_model() {
        assert_eq!(ChannelConfig::reliable().max_latency(), 1);
        assert_eq!(
            ChannelConfig::reliable()
                .with_latency(Latency::Fixed(4))
                .max_latency(),
            4
        );
        assert_eq!(
            ChannelConfig::reliable()
                .with_latency(Latency::UniformRounds { min: 2, max: 9 })
                .max_latency(),
            9
        );
        // Degenerate bounds clamp exactly like sample_fate does.
        assert_eq!(
            ChannelConfig::reliable()
                .with_latency(Latency::UniformRounds { min: 4, max: 2 })
                .max_latency(),
            4
        );
    }

    #[test]
    fn min_latency_tracks_the_latency_model() {
        assert_eq!(ChannelConfig::reliable().min_latency(), 1);
        assert_eq!(
            ChannelConfig::reliable()
                .with_latency(Latency::Fixed(4))
                .min_latency(),
            4
        );
        assert_eq!(
            ChannelConfig::reliable()
                .with_latency(Latency::UniformRounds { min: 2, max: 9 })
                .min_latency(),
            2
        );
        // Degenerate bounds clamp exactly like sample_fate does.
        assert_eq!(
            ChannelConfig::reliable()
                .with_latency(Latency::UniformRounds { min: 0, max: 9 })
                .min_latency(),
            1
        );
    }

    #[test]
    fn sender_seed_differs_from_process_streams() {
        // Edge keys must not collide with the engine stream (0) or
        // per-process streams (pid + 1) of the same master seed.
        let rngs = EdgeRngs::new(3);
        for (from, tick) in [(0, 0), (0, 1), (1, 0), (63, 9)] {
            for pid in 0..64 {
                assert_ne!(rngs.sender_seed(from, tick), derive_seed(3, pid));
            }
        }
    }

    /// Draw-order v3, bit for bit: the first two draws of eight keys
    /// (both ends of the pid range, a reversed edge, neighbouring ticks
    /// and occurrences, `to` and `occurrence` at `u32::MAX`). A change to
    /// these re-rolls every live fate and is a new draw-order version.
    #[test]
    fn draw_rng_matches_its_pinned_draws() {
        use rand::Rng as _;
        // from, to, tick, occurrence, then the two draws.
        const PINNED: [[u64; 6]; 8] = [
            [0, 0, 0, 0, 0x6a63b76b41a5d0df, 0x532b1b93fb847107],
            [3, 9, 5, 0, 0xf43209c5ec446bbf, 0x432a90857322f4bd],
            [3, 9, 5, 1, 0xcdee5ef60efe17b5, 0xf63139fb0dabd6aa],
            [9, 3, 5, 0, 0xcb7e57a2e839ff84, 0xe4fbc6f9a32a85cd],
            [3, 9, 6, 0, 0x061a46bc205a6c9f, 0x7308c08d18995453],
            [0xffff_ffff, 0, 1, 2, 0x67088822f202bf77, 0x390ed1ec11a6c736],
            [
                0,
                0xffff_ffff,
                u64::MAX,
                0xffff_ffff,
                0x2ebc8dbbc87fe276,
                0x8e7c247a1a4fea6f,
            ],
            [
                4_095,
                131_071,
                1 << 40,
                7,
                0x8bfc28482e6a2314,
                0x77e29490a647cdce,
            ],
        ];
        let rngs = EdgeRngs::new(42);
        for [from, to, tick, occurrence, first, second] in PINNED {
            let mut rng = rngs.draw_rng(from, to, tick, occurrence);
            assert_eq!((rng.gen(), rng.gen()), (first, second), "{from} -> {to}");
        }
    }

    /// Draw-order v3's fates are exact Bernoulli trials over 2²¹ keys
    /// (1,024 senders × 8 ticks × 16 receivers × 16 occurrences): the loss
    /// rate, the latency split among survivors, and the joint loss of
    /// neighbouring keys — the occurrence and the receiver share the
    /// key's last round — all sit within 4σ of independent draws.
    #[test]
    fn keyed_fates_are_exact_bernoulli() {
        use rand::Rng as _;
        use std::collections::HashSet;
        const SENDERS: u64 = 1_024;
        const TICKS: u64 = 8;
        const RECEIVERS: u64 = 16;
        const OCCURRENCES: u64 = 16;
        const KEYS: usize = (SENDERS * TICKS * RECEIVERS * OCCURRENCES) as usize;
        let rngs = EdgeRngs::new(42);
        // Every key's fate on `channel`, laid out
        // [from][tick][to][occurrence].
        let fates = |channel: ChannelConfig| {
            let mut fates = Vec::with_capacity(KEYS);
            for from in 0..SENDERS {
                for tick in 0..TICKS {
                    let sender = rngs.sender_seed(from, tick);
                    for to in 0..RECEIVERS {
                        for occurrence in 0..OCCURRENCES {
                            let mut rng = rngs.draw_rng_from(sender, to, occurrence);
                            fates.push(channel.sample_fate(&mut rng));
                        }
                    }
                }
            }
            fates
        };
        let within_4_sigma = |observed: usize, trials: usize, p: f64, what: &str| {
            let mean = trials as f64 * p;
            let band = 4.0 * (mean * (1.0 - p)).sqrt();
            assert!(
                (observed as f64 - mean).abs() <= band,
                "{what}: {observed} of {trials}, expected {mean:.0} ± {band:.0}"
            );
        };

        for p in [0.05, 0.15, 0.5] {
            let channel = ChannelConfig::reliable().with_success_probability(1.0 - p);
            let lost: Vec<bool> = fates(channel)
                .into_iter()
                .map(|fate| fate == ChannelFate::Lost)
                .collect();
            let losses = lost.iter().filter(|&&l| l).count();
            within_4_sigma(losses, KEYS, p, &format!("loss at p = {p}"));
            // Disjoint neighbours: occurrences (k, k + 1) of one edge at
            // stride 1, receivers (to, to + 1) at stride OCCURRENCES, the
            // lower one even in both cases.
            for (stride, pair) in [(1, "occurrences"), (OCCURRENCES as usize, "receivers")] {
                let firsts = (0..KEYS).filter(|i| (i / stride) % 2 == 0);
                let both = firsts.filter(|&i| lost[i] && lost[i + stride]).count();
                within_4_sigma(both, KEYS / 2, p * p, &format!("{pair} at p = {p}"));
            }
        }

        let jittery =
            ChannelConfig::paper_default().with_latency(Latency::UniformRounds { min: 1, max: 3 });
        let mut by_latency = [0usize; 3];
        for fate in fates(jittery) {
            if let ChannelFate::Deliver { latency } = fate {
                by_latency[latency as usize - 1] += 1;
            }
        }
        let survivors: usize = by_latency.iter().sum();
        within_4_sigma(survivors, KEYS, 0.85, "survivors");
        for (latency, &n) in (1..).zip(&by_latency) {
            within_4_sigma(n, survivors, 1.0 / 3.0, &format!("latency {latency}"));
        }

        // The split draw is the composed one, up to the packing's edges,
        // and no two keys of the grid share a stream.
        let mut streams = HashSet::new();
        let ends = [0, 1, u64::from(u32::MAX)];
        for from in ends {
            for tick in [0, 1, u64::MAX] {
                for to in ends {
                    for occurrence in ends {
                        let mut whole = rngs.draw_rng(from, to, tick, occurrence);
                        let mut split =
                            rngs.draw_rng_from(rngs.sender_seed(from, tick), to, occurrence);
                        let first: u64 = whole.gen();
                        assert_eq!((first, whole.gen::<u64>()), (split.gen(), split.gen()));
                        assert!(
                            streams.insert(first),
                            "{from} -> {to} @ {tick}#{occurrence}"
                        );
                    }
                }
            }
        }
    }
}
