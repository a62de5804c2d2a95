//! The metropolis soak protocol: a deliberately tiny gossip state
//! machine for exercising the substrates at populations the full
//! daMulticast stack was never sized for (the `live_metropolis`
//! example runs it at a million live processes).
//!
//! Every process sits on an arithmetic overlay — a ring link to
//! `pid + 1` and a skip link to `pid + ⌈√n⌉`, both mod `n` — so
//! neighbor sets are *computed*, never stored: per-process state is a
//! couple of machine words (a seen-bitmask and two counters), which is
//! what makes the million-process footprint a measurement of the
//! substrate (slab storage, lazy RNG slots, watermark grid, delay
//! wheel) rather than of protocol tables. A handful of publishers
//! flood headlines over the lattice with a hop budget; duplicate
//! suppression is one bit per headline.
//!
//! Like every protocol in this crate it is written once against
//! [`Exec`] and runs unchanged on the simulator and the
//! live runtime — the `live_metropolis` example and the benchmark's
//! `metro_flood` / `metro_churn` workloads drive it.

use da_core::{Exec, ExecProtocol, Family, Kind, McHash, ProcessId, WireSize};
use std::hash::Hasher;

/// Headline ids are bits in a [`MetroProcess`]'s 64-bit seen mask.
pub const MAX_HEADLINES: usize = 64;

/// A gossiped headline: which story, and how many hops it may still
/// travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetroMsg {
    /// Story id, `< MAX_HEADLINES`.
    pub headline: u8,
    /// Remaining forwarding budget.
    pub hops: u8,
}

impl WireSize for MetroMsg {
    fn wire_size(&self) -> usize {
        2
    }
}

/// One metropolis process: two computed overlay links, one bitmask of
/// delivered headlines, two counters. `size_of::<MetroProcess>()` is
/// what the million-process soak multiplies by.
#[derive(Debug, Clone)]
pub struct MetroProcess {
    population: u32,
    skip: u32,
    ttl: u8,
    /// Headline this process publishes at start (publishers only).
    publishes: Option<u8>,
    seen_mask: u64,
    delivered: u32,
    forwarded: u32,
}

impl MetroProcess {
    /// A non-publishing citizen of a metropolis of `population`
    /// processes, forwarding with hop budget `ttl`.
    #[must_use]
    pub fn new(population: usize, ttl: u8) -> Self {
        let population = u32::try_from(population).expect("metropolis fits ProcessId space");
        MetroProcess {
            population,
            skip: (f64::from(population).sqrt().ceil() as u32).max(1),
            ttl,
            publishes: None,
            seen_mask: 0,
            delivered: 0,
            forwarded: 0,
        }
    }

    /// Marks this process as the publisher of `headline` (`<
    /// MAX_HEADLINES`), announced once at start.
    #[must_use]
    fn publishing(mut self, headline: u8) -> Self {
        assert!(
            (headline as usize) < MAX_HEADLINES,
            "headline id {headline} out of range"
        );
        self.publishes = Some(headline);
        self
    }

    /// Number of distinct headlines delivered here.
    #[must_use]
    pub fn headlines_seen(&self) -> u32 {
        self.seen_mask.count_ones()
    }

    /// First-time deliveries at this process.
    #[must_use]
    pub fn delivered(&self) -> u32 {
        self.delivered
    }

    /// The two overlay neighbors of `me`: ring successor and √n skip.
    fn neighbors(&self, me: ProcessId) -> [ProcessId; 2] {
        let n = u64::from(self.population);
        let at = u64::from(me.0);
        [
            ProcessId(((at + 1) % n) as u32),
            ProcessId(((at + u64::from(self.skip)) % n) as u32),
        ]
    }

    fn forward<X: Exec<Msg = MetroMsg>>(&mut self, msg: MetroMsg, ctx: &mut X) {
        if msg.hops == 0 {
            return;
        }
        let onward = MetroMsg {
            headline: msg.headline,
            hops: msg.hops - 1,
        };
        for to in self.neighbors(ctx.me()) {
            if to != ctx.me() {
                ctx.send(to, onward);
                self.forwarded += 1;
            }
        }
    }
}

impl ExecProtocol for MetroProcess {
    type Msg = MetroMsg;

    fn on_start<X: Exec<Msg = MetroMsg>>(&mut self, ctx: &mut X) {
        if let Some(headline) = self.publishes {
            self.seen_mask |= 1u64 << headline;
            self.forward(
                MetroMsg {
                    headline,
                    hops: self.ttl,
                },
                ctx,
            );
        }
    }

    fn on_message<X: Exec<Msg = MetroMsg>>(
        &mut self,
        _from: ProcessId,
        msg: MetroMsg,
        ctx: &mut X,
    ) {
        let bit = 1u64 << msg.headline;
        if self.seen_mask & bit != 0 {
            ctx.count(Family::Metro, Kind::Duplicate, 0);
            return;
        }
        self.seen_mask |= bit;
        self.delivered += 1;
        ctx.count(Family::Metro, Kind::FirstDelivery, 0);
        self.forward(msg, ctx);
    }
}

impl McHash for MetroProcess {
    fn mc_hash(&self, state: &mut dyn Hasher) {
        state.write_u64(self.seen_mask);
        state.write_u32(self.delivered);
        state.write_u32(self.forwarded);
    }
}

impl McHash for MetroMsg {
    fn mc_hash(&self, state: &mut dyn Hasher) {
        state.write_u8(self.headline);
        state.write_u8(self.hops);
    }
}

/// The standard metropolis population: `n` processes, `headlines`
/// publishers spread evenly around the ring, each flooding with hop
/// budget `ttl`. Shared by the `live_metropolis` example and the
/// benchmark's `metro_*` workloads so they measure the same workload.
#[must_use]
pub fn metro_population(n: usize, headlines: usize, ttl: u8) -> Vec<MetroProcess> {
    assert!(
        headlines > 0 && headlines <= MAX_HEADLINES,
        "1..=64 headlines"
    );
    assert!(n >= headlines, "need at least one process per headline");
    let stride = n / headlines;
    (0..n)
        .map(|i| {
            let p = MetroProcess::new(n, ttl);
            if i % stride == 0 && i / stride < headlines {
                p.publishing((i / stride) as u8)
            } else {
                p
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_simnet::{Engine, SimConfig};

    #[test]
    fn metro_state_is_a_few_words() {
        // The million-process example multiplies this by 10⁶ — keep the
        // struct within four machine words.
        assert!(
            std::mem::size_of::<MetroProcess>() <= 32,
            "MetroProcess grew to {} bytes",
            std::mem::size_of::<MetroProcess>()
        );
    }

    #[test]
    fn headlines_flood_the_lattice_and_dedup() {
        let procs = metro_population(1000, 4, 10);
        let mut engine = Engine::new(SimConfig::default().with_seed(3), procs);
        engine.run_until_quiescent(64);
        let reached = engine
            .processes()
            .filter(|(_, p)| p.headlines_seen() > 0)
            .count();
        // Hop budget 10 over {+1, +√n} reaches the publishers'
        // neighborhoods, well beyond the publishers themselves.
        assert!(reached > 100, "only {reached} processes reached");
        let count = |kind| engine.tally().get(Family::Metro, kind, 0);
        let (first, dup) = (count(Kind::FirstDelivery), count(Kind::Duplicate));
        assert!(first > 0 && dup > 0, "flood must overlap ({first}, {dup})");
        // Conservation on the reliable channel: every send is a first
        // delivery or a suppressed duplicate.
        assert_eq!(engine.ledger().sent, first + dup);
        // One bit per story: nobody delivers a headline twice (the
        // publisher's own story is seen but not delivered).
        for (_, p) in engine.processes() {
            let published = u32::from(p.publishes.is_some());
            assert_eq!(p.delivered(), p.headlines_seen() - published);
        }
    }

    #[test]
    fn publishers_sit_on_an_even_stride() {
        let procs = metro_population(100, 4, 2);
        let publishers: Vec<usize> = procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.publishes.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(publishers, vec![0, 25, 50, 75]);
    }
}
