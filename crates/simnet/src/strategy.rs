//! The choice-injection seam between the engine and its sources of
//! nondeterminism.
//!
//! Everything nondeterministic the engine does in a round funnels
//! through exactly two decisions:
//!
//! 1. **the fate of a send** — today a draw on the engine RNG stream
//!    via [`NetworkModel::decide_fate`], and
//! 2. **which due message to deliver next** — today fixed FIFO
//!    `(delivery round, sequence)` order.
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
use da_core::ProcessId;
use rand::rngs::SmallRng;

/// One message due for delivery this round, as shown to
/// [`Strategy::next_delivery`]. The engine keeps the payload to
/// itself; identity and provenance are enough to pick an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueMessage {
    /// Round the message was sent in.
    pub sent: u64,
    /// Sending process.
    pub from: ProcessId,
    /// Destination process.
    pub to: ProcessId,
}

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

    /// Picks which of the `due` messages (never empty) is delivered
    /// next; the engine removes that entry and presents the remainder
    /// on the next call. Returning `0` every time — the default — is
    /// FIFO `(delivery round, sequence)` order, exactly the historical
    /// delivery order.
    ///
    /// # Returns
    ///
    /// An index into `due`; the engine clamps out-of-range answers to
    /// the last entry rather than panicking mid-round.
    fn next_delivery(&mut self, due: &[DueMessage]) -> usize {
        let _ = due;
        0
    }

    /// True when [`next_delivery`](Self::next_delivery) may return
    /// something other than `0`. The engine only materializes the
    /// [`DueMessage`] view (a per-round allocation) when a strategy
    /// asks for it; FIFO strategies keep the historical pop-as-you-go
    /// hot path.
    fn wants_ordering(&self) -> bool {
        false
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
        assert!(!strategy.wants_ordering());
        let due = [DueMessage {
            sent: 0,
            from: ProcessId(0),
            to: ProcessId(1),
        }];
        assert_eq!(strategy.next_delivery(&due), 0);
    }
}
