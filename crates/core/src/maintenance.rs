//! The maintenance task (`KEEP_TABLE_UPDATED`, Fig. 6 of the paper).
//!
//! Runs repeatedly: with probability `p_sel` the process checks the
//! liveness of its supertable entries (via ping/pong timeouts, footnote 7);
//! if the number of live entries drops to the threshold `τ` or below, it
//! asks the live superprocesses for fresh contacts (`NEWPROCESS`,
//! lines 18–21). When the table is empty the bootstrap restarts
//! (lines 12–14).

use da_core::ProcessId;
use std::collections::HashMap;

/// What the embedding protocol should do for the maintenance task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceAction {
    /// Send liveness pings (with this nonce) to these supertable entries.
    Ping {
        /// Correlation nonce for this check cycle.
        nonce: u64,
        /// Targets to probe.
        targets: Vec<ProcessId>,
    },
    /// Ask these live superprocesses for fresh supergroup contacts and
    /// drop the dead entries listed.
    Refresh {
        /// Entries that answered the last check — recipients of
        /// `NEWPROCESS` requests.
        alive: Vec<ProcessId>,
        /// Entries that failed the check — to be removed from the table.
        dead: Vec<ProcessId>,
    },
    /// The supertable is empty: restart `FIND_SUPER_CONTACT`.
    RestartBootstrap,
    /// Nothing to do this round.
    Idle,
}

/// Internal phase of the check cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    AwaitingPongs { nonce: u64, sent_at: u64 },
}

/// State machine of `KEEP_TABLE_UPDATED`.
#[derive(Debug, Clone)]
pub struct MaintenanceTask {
    period: u64,
    ping_timeout: u64,
    phase: Phase,
    /// Round of the last pong heard, per peer.
    last_pong: HashMap<ProcessId, u64>,
    next_nonce: u64,
}

impl MaintenanceTask {
    /// Creates a task running every `period` rounds with the given ping
    /// timeout.
    #[must_use]
    pub fn new(period: u64, ping_timeout: u64) -> Self {
        MaintenanceTask {
            period: period.max(1),
            ping_timeout: ping_timeout.max(1),
            phase: Phase::Idle,
            last_pong: HashMap::new(),
            next_nonce: 0,
        }
    }

    /// Records a pong from `from` at `round`.
    pub fn on_pong(&mut self, from: ProcessId, round: u64) {
        self.last_pong.insert(from, round);
    }

    /// Round hook. `stable_entries` is the current supertable content;
    /// `selected` is the outcome of the paper's `RAND() vs p_sel` draw
    /// (passed in so the caller controls the RNG stream); `tau` the
    /// refresh threshold.
    pub fn on_round(
        &mut self,
        round: u64,
        stable_entries: &[ProcessId],
        selected: bool,
        tau: usize,
    ) -> MaintenanceAction {
        // Resolution of an in-flight check takes priority.
        if let Phase::AwaitingPongs { sent_at, .. } = self.phase {
            if round.saturating_sub(sent_at) >= self.ping_timeout {
                self.phase = Phase::Idle;
                let (alive, dead): (Vec<ProcessId>, Vec<ProcessId>) = stable_entries
                    .iter()
                    .partition(|&&p| self.last_pong.get(&p).is_some_and(|&r| r >= sent_at));
                // The paper's CHECK(sTable) ≤ τ condition (line 18).
                if alive.len() <= tau {
                    return MaintenanceAction::Refresh { alive, dead };
                }
            }
            return MaintenanceAction::Idle;
        }

        if !round.is_multiple_of(self.period) {
            return MaintenanceAction::Idle;
        }
        if stable_entries.is_empty() {
            return MaintenanceAction::RestartBootstrap;
        }
        if !selected {
            return MaintenanceAction::Idle;
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.phase = Phase::AwaitingPongs {
            nonce,
            sent_at: round,
        };
        MaintenanceAction::Ping {
            nonce,
            targets: stable_entries.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(ids: &[u32]) -> Vec<ProcessId> {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn empty_table_restarts_bootstrap() {
        let mut t = MaintenanceTask::new(5, 2);
        assert_eq!(
            t.on_round(0, &[], true, 1),
            MaintenanceAction::RestartBootstrap
        );
        // Off-period rounds stay idle even with an empty table.
        assert_eq!(t.on_round(1, &[], true, 1), MaintenanceAction::Idle);
    }

    #[test]
    fn unselected_process_stays_idle() {
        let mut t = MaintenanceTask::new(5, 2);
        assert_eq!(
            t.on_round(0, &entries(&[1, 2]), false, 1),
            MaintenanceAction::Idle
        );
    }

    #[test]
    fn selected_process_pings_everyone() {
        let mut t = MaintenanceTask::new(5, 2);
        match t.on_round(0, &entries(&[1, 2, 3]), true, 1) {
            MaintenanceAction::Ping { targets, .. } => {
                assert_eq!(targets, entries(&[1, 2, 3]));
            }
            other => panic!("expected Ping, got {other:?}"),
        }
    }

    #[test]
    fn all_alive_needs_no_refresh() {
        let mut t = MaintenanceTask::new(5, 2);
        t.on_round(0, &entries(&[1, 2]), true, 1);
        t.on_pong(ProcessId(1), 1);
        t.on_pong(ProcessId(2), 1);
        // Timeout expires at round 2; both answered; 2 > τ=1 → no refresh.
        assert_eq!(
            t.on_round(2, &entries(&[1, 2]), true, 1),
            MaintenanceAction::Idle
        );
    }

    #[test]
    fn refresh_when_alive_at_or_below_tau() {
        let mut t = MaintenanceTask::new(5, 2);
        t.on_round(0, &entries(&[1, 2, 3]), true, 1);
        t.on_pong(ProcessId(2), 1);
        match t.on_round(2, &entries(&[1, 2, 3]), true, 1) {
            MaintenanceAction::Refresh { alive, dead } => {
                assert_eq!(alive, entries(&[2]));
                assert_eq!(dead.len(), 2);
                assert!(dead.contains(&ProcessId(1)));
                assert!(dead.contains(&ProcessId(3)));
            }
            other => panic!("expected Refresh, got {other:?}"),
        }
    }

    #[test]
    fn stale_pongs_do_not_count() {
        let mut t = MaintenanceTask::new(5, 2);
        // Peer 1 answered long ago (round 0)...
        t.on_pong(ProcessId(1), 0);
        // ...a new check starts at round 5.
        t.on_round(5, &entries(&[1]), true, 0);
        match t.on_round(7, &entries(&[1]), true, 0) {
            MaintenanceAction::Refresh { alive, dead } => {
                assert!(alive.is_empty(), "round-0 pong predates the round-5 check");
                assert_eq!(dead, entries(&[1]));
            }
            other => panic!("expected Refresh, got {other:?}"),
        }
    }

    #[test]
    fn no_double_check_while_awaiting() {
        let mut t = MaintenanceTask::new(1, 5);
        assert!(matches!(
            t.on_round(0, &entries(&[1]), true, 0),
            MaintenanceAction::Ping { .. }
        ));
        // Period elapses again, but the check is still in flight.
        assert_eq!(
            t.on_round(1, &entries(&[1]), true, 0),
            MaintenanceAction::Idle
        );
    }

    #[test]
    fn nonces_increment() {
        let mut t = MaintenanceTask::new(1, 1);
        let n1 = match t.on_round(0, &entries(&[1]), true, 0) {
            MaintenanceAction::Ping { nonce, .. } => nonce,
            other => panic!("{other:?}"),
        };
        t.on_pong(ProcessId(1), 0);
        t.on_round(1, &entries(&[1]), true, 0); // resolves: alive > τ? alive=1 > 0 → Idle
        let n2 = match t.on_round(2, &entries(&[1]), true, 0) {
            MaintenanceAction::Ping { nonce, .. } => nonce,
            other => panic!("{other:?}"),
        };
        assert!(n2 > n1);
    }
}
