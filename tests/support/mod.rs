//! A delivery-order log for tests. `DaProcess` keeps the set of what it
//! delivered, not the order; a test that checks the order runs each
//! process inside a [`Logged`] and reads its log.

use da_core::{Exec, ExecProtocol, ProcessId};
use damulticast::{DaMsg, DaProcess, EventId};

/// A `DaProcess` that appends, after each hook, the ids the hook
/// delivered. A message carries one event, and a round hook delivers
/// only the process's own queued publications, in sequence order; so
/// the ids one hook adds, logged in id order, are in delivery order.
pub struct Logged {
    pub process: DaProcess,
    pub log: Vec<EventId>,
}

impl Logged {
    /// Wraps each process with an empty log.
    pub fn all(processes: Vec<DaProcess>) -> Vec<Logged> {
        processes
            .into_iter()
            .map(|process| Logged {
                process,
                log: Vec::new(),
            })
            .collect()
    }

    /// Logs the delivered ids the log lacks; returns how many.
    fn record(&mut self) -> usize {
        if self.process.delivered().len() == self.log.len() {
            return 0;
        }
        let mut fresh: Vec<EventId> = self
            .process
            .delivered()
            .iter()
            .filter(|id| !self.log.contains(id))
            .collect();
        fresh.sort_unstable();
        self.log.extend(&fresh);
        fresh.len()
    }
}

impl ExecProtocol for Logged {
    type Msg = DaMsg;

    fn on_start<X: Exec<Msg = DaMsg>>(&mut self, ctx: &mut X) {
        self.process.on_start(ctx);
        self.record();
    }

    fn on_message<X: Exec<Msg = DaMsg>>(&mut self, from: ProcessId, msg: DaMsg, ctx: &mut X) {
        self.process.on_message(from, msg, ctx);
        assert!(self.record() <= 1, "one message delivered two events");
    }

    fn on_round<X: Exec<Msg = DaMsg>>(&mut self, round: u64, ctx: &mut X) {
        self.process.on_round(round, ctx);
        self.record();
    }

    fn on_recover<X: Exec<Msg = DaMsg>>(&mut self, ctx: &mut X) {
        self.process.on_recover(ctx);
        self.record();
    }
}
