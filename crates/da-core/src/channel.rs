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
//! ([`EdgeRngs`]).

use crate::seed::{derive_seed, rng_from_seed};
use rand::rngs::SmallRng;
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
    ///
    /// ```
    /// use da_core::channel::Latency;
    /// assert_eq!(Latency::Fixed(3).min_rounds(), 3);
    /// assert_eq!(Latency::Fixed(0).min_rounds(), 1, "clamped like sampling");
    /// assert_eq!(Latency::UniformRounds { min: 2, max: 5 }.min_rounds(), 2);
    /// ```
    #[must_use]
    pub fn min_rounds(&self) -> u64 {
        match self {
            Latency::Fixed(l) => (*l).max(1),
            Latency::UniformRounds { min, .. } => (*min).max(1),
        }
    }

    /// The slowest delivery this model can ever sample, in rounds/ticks
    /// (≥ [`min_rounds`](Self::min_rounds), with the same degenerate-bound
    /// clamping [`ChannelConfig::sample_fate`] applies).
    ///
    /// Where `min_rounds` bounds how far a scheduler may run *ahead*,
    /// `max_rounds` bounds how far into the future a surviving send can
    /// land — the sizing bound for a fixed-capacity delay wheel.
    ///
    /// ```
    /// use da_core::channel::Latency;
    /// assert_eq!(Latency::Fixed(3).max_rounds(), 3);
    /// assert_eq!(Latency::Fixed(0).max_rounds(), 1, "clamped like sampling");
    /// assert_eq!(Latency::UniformRounds { min: 2, max: 5 }.max_rounds(), 5);
    /// assert_eq!(Latency::UniformRounds { min: 4, max: 2 }.max_rounds(), 4);
    /// ```
    #[must_use]
    pub fn max_rounds(&self) -> u64 {
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

    /// The fastest delivery this channel can ever sample
    /// ([`Latency::min_rounds`] of its latency model) — the slack a
    /// bounded-lag scheduler may exploit between workers.
    #[must_use]
    pub fn min_latency(&self) -> u64 {
        self.latency.min_rounds()
    }

    /// The slowest delivery this channel can ever sample
    /// ([`Latency::max_rounds`] of its latency model) — the capacity a
    /// fixed-size delay wheel needs to hold every in-flight envelope.
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

    /// Enumerates every fate [`sample_fate`](Self::sample_fate) could
    /// possibly return, in a canonical order: `Lost` first (present iff
    /// `success_probability < 1`), then `Deliver` for each reachable
    /// latency in ascending order.
    ///
    /// This is the enumeration twin of the sampling API: a bounded
    /// model checker substitutes one of these fates for the RNG draw at
    /// each choice point, so the set returned here *is* the branching
    /// factor of a send. The sampling path is untouched — draws remain
    /// byte-identical to before this method existed.
    ///
    /// ```
    /// use da_core::channel::{ChannelConfig, ChannelFate, Latency};
    ///
    /// let lossy = ChannelConfig::reliable().with_success_probability(0.5);
    /// assert_eq!(
    ///     lossy.enumerate_fates(),
    ///     vec![ChannelFate::Lost, ChannelFate::Deliver { latency: 1 }],
    /// );
    ///
    /// let jittery = ChannelConfig::reliable()
    ///     .with_latency(Latency::UniformRounds { min: 1, max: 3 });
    /// assert_eq!(jittery.enumerate_fates().len(), 3);
    /// ```
    #[must_use]
    pub fn enumerate_fates(&self) -> Vec<ChannelFate> {
        let mut fates = Vec::new();
        if self.success_probability < 1.0 {
            fates.push(ChannelFate::Lost);
        }
        if self.success_probability > 0.0 {
            match self.latency {
                Latency::Fixed(l) => fates.push(ChannelFate::Deliver { latency: l.max(1) }),
                Latency::UniformRounds { min, max } => {
                    let lo = min.max(1);
                    let hi = max.max(lo);
                    for latency in lo..=hi {
                        fates.push(ChannelFate::Deliver { latency });
                    }
                }
            }
        }
        fates
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
/// draws: every send's fate comes from a fresh [`SmallRng`] keyed by
/// `(master seed, from, to, send tick, within-tick occurrence)`.
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
/// The key is folded in the order `from`, `to`, `tick`, `occurrence`,
/// one [`derive_seed`] round each, so everything a sender's draws share
/// is a prefix: [`source_seed`](Self::source_seed) is the first round,
/// and a caller routing a run of sends from one process derives it once
/// and finishes each send with
/// [`draw_rng_from`](Self::draw_rng_from). [`draw_rng`](Self::draw_rng)
/// is the two composed.
///
/// **Draw-order version 2.** Counter-mode keys changed the live
/// substrate's fate sequences relative to the original sequential
/// per-edge streams (draw-order v1): the per-seed fates are fully
/// deterministic and worker-count-independent, but they are not
/// byte-identical to v1's. Sim-vs-live parity is unaffected — the
/// simulator draws fates on its own engine stream, and every
/// cross-substrate comparison in the workspace is over delivered sets
/// or 3σ reliability bands, not live fate bytes. The prefix split is
/// inside v2: it regroups the same four rounds and moves no bit
/// (`draw_rng_matches_its_pinned_draws`).
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
/// let split: u64 = a.draw_rng_from(a.source_seed(3), 9, 5, 0).gen();
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

    /// The seed every draw on an edge out of `from` starts from: the
    /// part of the key a sender's sends share.
    #[must_use]
    pub fn source_seed(&self, from: u64) -> u64 {
        derive_seed(self.edge_master, from)
    }

    /// The seed of the `(from, to)` edge family (exposed for tests and
    /// for substrates that manage their own RNG storage).
    #[must_use]
    pub fn edge_seed(&self, from: u64, to: u64) -> u64 {
        derive_seed(self.source_seed(from), to)
    }

    /// [`draw_rng`](Self::draw_rng) from a sender's
    /// [`source_seed`](Self::source_seed): the RNG of the
    /// `occurrence`-th message to `to` within send tick `tick`.
    #[must_use]
    pub fn draw_rng_from(&self, source_seed: u64, to: u64, tick: u64, occurrence: u64) -> SmallRng {
        rng_from_seed(derive_seed(
            derive_seed(derive_seed(source_seed, to), tick),
            occurrence,
        ))
    }

    /// The RNG for one send: the `occurrence`-th message (0-based) on
    /// the directed edge `from → to` within send tick `tick`. Pure in
    /// its arguments — no state is read or written, so the same key
    /// yields the same draws on any worker striping, in any order, any
    /// number of times.
    #[must_use]
    pub fn draw_rng(&self, from: u64, to: u64, tick: u64, occurrence: u64) -> SmallRng {
        self.draw_rng_from(self.source_seed(from), to, tick, occurrence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn enumerate_fates_covers_every_sampled_fate() {
        // Every fate sample_fate can draw must appear in the
        // enumeration, and the enumeration must not list unreachable
        // fates: drops only when lossy, latencies clamped identically.
        let configs = [
            ChannelConfig::reliable(),
            ChannelConfig::paper_default(),
            ChannelConfig::default().with_latency(Latency::Fixed(0)),
            ChannelConfig::default()
                .with_success_probability(0.5)
                .with_latency(Latency::UniformRounds { min: 0, max: 3 }),
            ChannelConfig::default().with_latency(Latency::UniformRounds { min: 4, max: 2 }),
        ];
        let mut rng = rng_from_seed(11);
        for config in configs {
            let enumerated = config.enumerate_fates();
            assert!(!enumerated.is_empty());
            for _ in 0..500 {
                let sampled = config.sample_fate(&mut rng);
                assert!(
                    enumerated.contains(&sampled),
                    "{sampled:?} sampled but not enumerated for {config:?}"
                );
            }
        }
    }

    #[test]
    fn enumerate_fates_orders_lost_then_ascending_latency() {
        let fates = ChannelConfig::default()
            .with_success_probability(0.9)
            .with_latency(Latency::UniformRounds { min: 1, max: 3 })
            .enumerate_fates();
        assert_eq!(
            fates,
            vec![
                ChannelFate::Lost,
                ChannelFate::Deliver { latency: 1 },
                ChannelFate::Deliver { latency: 2 },
                ChannelFate::Deliver { latency: 3 },
            ]
        );
        // A perfect channel has exactly one fate: no branching at all.
        assert_eq!(
            ChannelConfig::reliable().enumerate_fates(),
            vec![ChannelFate::Deliver { latency: 1 }]
        );
        // A fully dead channel only ever loses.
        assert_eq!(
            ChannelConfig::default()
                .with_success_probability(0.0)
                .enumerate_fates(),
            vec![ChannelFate::Lost]
        );
    }

    #[test]
    fn edge_seed_differs_from_process_streams() {
        // Edge streams must not collide with the engine stream (0) or
        // per-process streams (pid + 1) of the same master seed.
        let rngs = EdgeRngs::new(3);
        for pid in 0..64 {
            assert_ne!(rngs.edge_seed(0, 1), derive_seed(3, pid));
        }
    }

    /// Draw-order v2, bit for bit: the first two draws of eight keys
    /// (both ends of the pid range, a reversed edge, neighbouring ticks
    /// and occurrences). A change to these re-rolls every live fate and
    /// is a new draw-order version. The sender's prefix regroups the
    /// rounds without moving a bit.
    #[test]
    fn draw_rng_matches_its_pinned_draws() {
        use rand::Rng as _;
        // from, to, tick, occurrence, then the two draws.
        const PINNED: [[u64; 6]; 8] = [
            [0, 0, 0, 0, 0x7354bb1fb70589e4, 0x19bb34c5cdefb341],
            [3, 9, 5, 0, 0x4231ea593288e2a6, 0x0da5436bc432d80e],
            [3, 9, 5, 1, 0xb3acc4d3eb520b56, 0xcbc104c2cf82f1e4],
            [9, 3, 5, 0, 0x9d3e8796c53acf69, 0xb5904faf8644af1c],
            [3, 9, 6, 0, 0x565876a0756029c8, 0x2ab31d592a7a56ad],
            [0xffff_ffff, 0, 1, 2, 0x9365a52c38840ae4, 0x4d38caaf800c495e],
            [
                0,
                0xffff_ffff,
                u64::MAX,
                0xffff_ffff,
                0xb6a502a0b4435126,
                0xa0a628184cd08c1a,
            ],
            [
                4_095,
                131_071,
                1 << 40,
                7,
                0xb15ab88d6dc5eb49,
                0xd3775867fa74be6e,
            ],
        ];
        let rngs = EdgeRngs::new(42);
        for [from, to, tick, occurrence, first, second] in PINNED {
            let draws = (first, second);
            let mut whole = rngs.draw_rng(from, to, tick, occurrence);
            assert_eq!((whole.gen(), whole.gen()), draws, "{from} -> {to}");
            let mut split = rngs.draw_rng_from(rngs.source_seed(from), to, tick, occurrence);
            assert_eq!((split.gen(), split.gen()), draws, "{from} -> {to}, split");
            assert_eq!(
                rngs.edge_seed(from, to),
                derive_seed(rngs.source_seed(from), to)
            );
        }
    }
}
