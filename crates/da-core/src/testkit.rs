//! Protocol fixtures the substrates' tests and the harness share.
//!
//! A plain public module rather than a cargo feature: the fixtures are a
//! few dozen lines, and one definition is what keeps the simulator's
//! tests, the pool's tests and the cross-substrate diffs talking about
//! the same workload.

use crate::exec::{Exec, ExecProtocol};
use crate::process::ProcessId;

/// A ring relay: in each of its first `send_rounds` rounds every process
/// sends the round number to the next pid, and logs the tick of every
/// receipt.
///
/// It draws no randomness and keeps no order-sensitive state, so what a
/// run shows — receipt ticks, counters, trace — depends on the fault
/// configuration and the seed alone: the workload under which the two
/// substrates' canonical traces coincide exactly.
#[derive(Debug, Clone)]
pub struct Relay {
    population: u32,
    send_rounds: u64,
    /// The tick of each receipt, in delivery order.
    pub received: Vec<u64>,
}

impl Relay {
    /// A ring of `population` relays sending in rounds `0..send_rounds`
    /// (`u64::MAX`: in every round).
    #[must_use]
    pub fn ring(population: u32, send_rounds: u64) -> Vec<Relay> {
        (0..population)
            .map(|_| Relay {
                population,
                send_rounds,
                received: Vec::new(),
            })
            .collect()
    }
}

impl ExecProtocol for Relay {
    /// The round the token was sent in (8 bytes on the wire).
    type Msg = u64;

    fn on_message<X: Exec<Msg = u64>>(&mut self, _from: ProcessId, sent_at: u64, ctx: &mut X) {
        assert!(
            sent_at < ctx.round(),
            "deliveries are strictly later than their send tick"
        );
        self.received.push(ctx.round());
    }

    fn on_round<X: Exec<Msg = u64>>(&mut self, round: u64, ctx: &mut X) {
        if round < self.send_rounds {
            let next = ProcessId((ctx.me().0 + 1) % self.population);
            ctx.send(next, round);
        }
    }
}

/// A silent process recording which hooks ran — the whole observable
/// lifecycle schedule of a process under a failure plan.
#[derive(Debug, Clone, Default)]
pub struct LifeProbe {
    /// Every round `on_round` ran in.
    pub rounds: Vec<u64>,
    /// Whether `on_start` ran.
    pub started: bool,
    /// How often `on_recover` ran.
    pub recoveries: u64,
}

impl ExecProtocol for LifeProbe {
    type Msg = ();

    fn on_start<X: Exec<Msg = ()>>(&mut self, _ctx: &mut X) {
        self.started = true;
    }

    fn on_message<X: Exec<Msg = ()>>(&mut self, _from: ProcessId, _msg: (), _ctx: &mut X) {}

    fn on_round<X: Exec<Msg = ()>>(&mut self, round: u64, _ctx: &mut X) {
        self.rounds.push(round);
    }

    fn on_recover<X: Exec<Msg = ()>>(&mut self, _ctx: &mut X) {
        self.recoveries += 1;
    }
}
