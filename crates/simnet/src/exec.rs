//! The simulator's side of the `da_core::exec` contract: [`Ctx`], the
//! [`Exec`] the engine hands to every protocol hook.

use da_core::{Counters, Exec, LabelId, ProcessId};
use rand::rngs::SmallRng;

/// Per-callback execution context handed to `ExecProtocol` hooks.
///
/// Provides the process identity, the current round, a deterministic
/// per-process RNG, the shared metrics registry, and the outbox — all
/// through its [`Exec`] impl.
pub struct Ctx<'a, M> {
    pub(crate) me: ProcessId,
    pub(crate) round: u64,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) counters: &'a mut Counters,
    pub(crate) outbox: &'a mut Vec<(ProcessId, M)>,
}

impl<M> Exec for Ctx<'_, M> {
    type Msg = M;

    fn me(&self) -> ProcessId {
        self.me
    }

    fn round(&self) -> u64 {
        self.round
    }

    /// Queues a best-effort message to `to`. The message is subject to
    /// channel loss, latency, and the failure model.
    fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn bump(&mut self, label: &str) {
        self.counters.bump(label);
    }

    fn bump_id(&mut self, label: LabelId) {
        self.counters.bump_id(label);
    }

    fn add(&mut self, label: &str, delta: u64) {
        self.counters.add_named(label, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SimConfig};
    use da_core::{ExecProtocol, WireSize};

    /// A protocol written purely against [`ExecProtocol`], checked here
    /// under the simulator.
    struct Echo {
        heard: Vec<(ProcessId, u8)>,
    }

    #[derive(Clone, Debug)]
    struct Byte(u8);
    impl WireSize for Byte {
        fn wire_size(&self) -> usize {
            1
        }
    }

    impl ExecProtocol for Echo {
        type Msg = Byte;

        fn on_start<X: Exec<Msg = Byte>>(&mut self, ctx: &mut X) {
            if ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), Byte(7));
                ctx.bump("echo.pings");
            }
        }

        fn on_message<X: Exec<Msg = Byte>>(&mut self, from: ProcessId, msg: Byte, ctx: &mut X) {
            self.heard.push((from, msg.0));
            if msg.0 > 0 {
                ctx.send(from, Byte(msg.0 - 1));
            }
            ctx.add("echo.bytes", 1);
        }
    }

    #[test]
    fn exec_protocol_runs_under_the_simulator() {
        let procs = vec![Echo { heard: vec![] }, Echo { heard: vec![] }];
        let mut engine = Engine::new(SimConfig::default().with_seed(1), procs);
        engine.run_until_quiescent(32);
        // The byte ping-pongs 7 → 0: eight deliveries in total.
        assert_eq!(engine.counters().get("echo.bytes"), 8);
        assert_eq!(engine.counters().get("echo.pings"), 1);
        assert_eq!(engine.process(ProcessId(1)).heard.len(), 4);
        assert_eq!(engine.process(ProcessId(0)).heard.len(), 4);
    }

    #[test]
    fn ctx_exec_exposes_identity_time_and_rng() {
        struct Probe {
            ok: bool,
        }
        #[derive(Clone, Debug)]
        struct Nothing;
        impl WireSize for Nothing {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl ExecProtocol for Probe {
            type Msg = Nothing;
            fn on_message<X: Exec<Msg = Nothing>>(
                &mut self,
                _f: ProcessId,
                _m: Nothing,
                _c: &mut X,
            ) {
            }
            fn on_round<X: Exec<Msg = Nothing>>(&mut self, round: u64, ctx: &mut X) {
                use rand::Rng as _;
                let _draw: u64 = ctx.rng().gen();
                self.ok = ctx.round() == round && ctx.me() == ProcessId(0);
            }
        }
        let mut engine = Engine::new(SimConfig::default(), vec![Probe { ok: false }]);
        engine.run_rounds(3);
        assert!(engine.process(ProcessId(0)).ok);
    }
}
