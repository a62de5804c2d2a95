//! Property tests on the simulation kernel: conservation laws, failure
//! model semantics, and determinism over arbitrary configurations.

use da_core::{ChannelConfig, Exec, ExecProtocol, FailureModel, Latency, ProcessId, WireSize};
use da_simnet::{Engine, SimConfig};
use proptest::prelude::*;
use rand::Rng as _;

/// A protocol that floods: every process sends one message to a random
/// peer each round and counts receipts.
#[derive(Clone)]
struct Chatter {
    population: u32,
    received: u64,
}

#[derive(Clone, Debug)]
struct Blip;

impl WireSize for Blip {
    fn wire_size(&self) -> usize {
        3
    }
}

impl ExecProtocol for Chatter {
    type Msg = Blip;

    fn on_message<X: Exec<Msg = Blip>>(&mut self, _from: ProcessId, _msg: Blip, _ctx: &mut X) {
        self.received += 1;
    }

    fn on_round<X: Exec<Msg = Blip>>(&mut self, _round: u64, ctx: &mut X) {
        let target = ProcessId(ctx.rng().gen_range(0..self.population));
        if target != ctx.me() {
            ctx.send(target, Blip);
        }
    }
}

fn chatter_engine(config: SimConfig, n: u32) -> Engine<Chatter> {
    Engine::new(
        config,
        (0..n)
            .map(|_| Chatter {
                population: n,
                received: 0,
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: sent = delivered + dropped (channel, dead target,
    /// observed-failed) + still in flight.
    #[test]
    fn message_conservation(
        n in 2u32..40,
        rounds in 1u64..40,
        p_succ in 0.0f64..=1.0,
        alive in 0.0f64..=1.0,
        seed in 0u64..10_000,
    ) {
        let config = SimConfig::default()
            .with_seed(seed)
            .with_channel(ChannelConfig::default().with_success_probability(p_succ))
            .with_failures(FailureModel::Stillborn { alive_fraction: alive });
        let mut e = chatter_engine(config, n);
        e.run_rounds(rounds);
        prop_assert_eq!(e.ledger().in_flight(), Some(e.in_flight() as u64));
    }

    /// Bytes are charged exactly wire_size per send.
    #[test]
    fn bytes_proportional_to_sends(
        n in 2u32..20,
        rounds in 1u64..20,
        seed in 0u64..10_000,
    ) {
        let mut e = chatter_engine(SimConfig::default().with_seed(seed), n);
        e.run_rounds(rounds);
        prop_assert_eq!(e.ledger().bytes_sent, e.ledger().sent * 3);
    }

    /// Stillborn materialisation crashes exactly the complement of the
    /// alive fraction (rounded), and those processes never receive.
    #[test]
    fn stillborn_counts_exact(
        n in 1u32..100,
        alive in 0.0f64..=1.0,
        seed in 0u64..10_000,
    ) {
        let config = SimConfig::default().with_seed(seed).with_failures(
            FailureModel::Stillborn { alive_fraction: alive },
        );
        let mut e = chatter_engine(config, n);
        e.run_rounds(10);
        let expected_crashed =
            n as usize - (alive.clamp(0.0, 1.0) * f64::from(n)).round() as usize;
        let crashed: Vec<ProcessId> = (0..n)
            .map(ProcessId)
            .filter(|&p| !e.status(p).is_alive())
            .collect();
        prop_assert_eq!(crashed.len(), expected_crashed);
        for p in crashed {
            prop_assert_eq!(e.process(p).received, 0);
        }
    }

    /// Bit-exact determinism across arbitrary configurations.
    #[test]
    fn engine_fully_deterministic(
        n in 2u32..30,
        rounds in 1u64..30,
        p_succ in 0.1f64..=1.0,
        seed in 0u64..10_000,
    ) {
        let run = || {
            let config = SimConfig::default()
                .with_seed(seed)
                .with_channel(ChannelConfig::default().with_success_probability(p_succ));
            let mut e = chatter_engine(config, n);
            e.run_rounds(rounds);
            (
                e.ledger().sent,
                e.ledger().delivered,
                e.ledger().dropped_channel,
                e.processes().map(|(_, p)| p.received).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Per-observer mode: nobody is ever globally crashed, and the drop
    /// rate tracks 1 − alive_fraction.
    #[test]
    fn per_observer_never_crashes(
        n in 2u32..30,
        alive in 0.0f64..=1.0,
        seed in 0u64..10_000,
    ) {
        let config = SimConfig::default().with_seed(seed).with_failures(
            FailureModel::PerObserver { alive_fraction: alive },
        );
        let mut e = chatter_engine(config, n);
        e.run_rounds(20);
        prop_assert_eq!(e.alive().len(), n as usize);
        if alive >= 1.0 {
            prop_assert_eq!(e.ledger().dropped_observed, 0);
        }
    }

    /// Latency jitter preserves conservation and eventually delivers.
    #[test]
    fn latency_jitter_conserves(
        n in 2u32..20,
        min in 1u64..4,
        extra in 0u64..4,
        seed in 0u64..10_000,
    ) {
        let config = SimConfig::default().with_seed(seed).with_channel(
            ChannelConfig::default().with_latency(Latency::UniformRounds {
                min,
                max: min + extra,
            }),
        );
        let mut e = chatter_engine(config, n);
        e.run_rounds(10);
        // Drain the pipe: no sends happen after we stop calling on_round,
        // so run until quiescent to flush stragglers.
        for _ in 0..20 {
            if e.in_flight() == 0 {
                break;
            }
            e.step_round();
        }
        prop_assert!(
            e.ledger().delivered >= e.ledger().sent
                .saturating_sub(e.in_flight() as u64 + 200),
        );
    }
}
