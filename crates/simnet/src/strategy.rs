//! The choice-injection seam between the engine and its sources of
//! nondeterminism.
//!
//! Everything nondeterministic the engine does in a round funnels
//! through exactly two decisions, each made once where it arises:
//!
//! 1. **the fate of each send**, as it is sent — today a draw on the
//!    engine RNG stream via [`NetworkModel::decide_fate`], and
//! 2. **the order of the round's due set**, once per round before the
//!    first delivery — today fixed FIFO `(delivery round, sequence)`
//!    order.
//!
//! A [`Strategy`] intercepts both. The default [`RngStrategy`] keeps
//! the pre-existing behavior bit-for-bit: fates come from the pinned
//! RNG draw order, deliveries stay FIFO, and no extra randomness is
//! consumed — `Engine::step_round` simply delegates to
//! `step_round_with(&mut RngStrategy)`. The bounded model checker in
//! [`crate::mc`] substitutes a script-following strategy that replays
//! an enumerated choice at each decision point instead, which is how
//! "all interleavings × all drop choices" becomes a tree walk over the
//! same engine code path that production simulations run.

use da_core::network::{NetFate, NetworkModel};
use da_core::wheel::Envelope;
use da_core::ProcessId;
use rand::rngs::SmallRng;

/// The engine's nondeterminism provider: decides send fates and
/// delivery order. See the module-level docs for the contract.
///
/// Both methods have defaults that reproduce the engine's historical
/// behavior exactly, so a strategy only overrides the decision it
/// wants to control.
pub trait Strategy {
    /// Decides the fate of the `occurrence`-th send from `from` to
    /// `to` at `tick`.
    ///
    /// The default routes through [`NetworkModel::decide_fate`] — the
    /// scripted-drop check followed by the pinned channel draws, which
    /// are exactly the bare channel's whenever no drop is scripted.
    /// Overrides that never touch `rng`
    /// consume zero randomness, keeping every other stream in step.
    fn fate(
        &mut self,
        network: &NetworkModel,
        from: ProcessId,
        to: ProcessId,
        tick: u64,
        occurrence: u32,
        rng: &mut SmallRng,
    ) -> NetFate {
        network.decide_fate(from, to, tick, occurrence, rng)
    }

    /// Permutes the round's due set in place; the engine then delivers
    /// it front to back. Latency is at least one round, so nothing sent
    /// while delivering joins the set: it is whole when this is called.
    /// The default leaves it as it is, which is FIFO
    /// `(delivery round, sequence)` order, exactly the historical
    /// delivery order.
    fn order<M>(&mut self, due: &mut [Envelope<M>]) {
        let _ = due;
    }
}

/// The production strategy: RNG-drawn fates, FIFO delivery. Stateless.
#[derive(Debug, Clone, Copy, Default)]
pub struct RngStrategy;

impl Strategy for RngStrategy {}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::channel::ChannelConfig;
    use da_core::seed::rng_from_seed;

    #[test]
    fn default_strategy_is_the_network_model_draw() {
        let network = NetworkModel::uniform(ChannelConfig::paper_default());
        let mut a = rng_from_seed(9);
        let mut b = rng_from_seed(9);
        let mut strategy = RngStrategy;
        for tick in 0..128 {
            assert_eq!(
                strategy.fate(&network, ProcessId(0), ProcessId(1), tick, 0, &mut a),
                network.decide_fate(ProcessId(0), ProcessId(1), tick, 0, &mut b),
            );
        }
        // Deliveries stay in FIFO order: the due set comes back as it went in.
        let mut due: Vec<Envelope<u32>> = (0..6)
            .map(|i| Envelope {
                from: ProcessId(i % 3),
                to: ProcessId(5 - i),
                sent_tick: 4,
                due_tick: 5,
                msg: i,
            })
            .collect();
        strategy.order(&mut due);
        let msgs: Vec<u32> = due.iter().map(|m| m.msg).collect();
        assert_eq!(msgs, [0, 1, 2, 3, 4, 5]);
    }
}
