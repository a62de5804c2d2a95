//! Internal event queue of the engine: in-flight messages keyed by their
//! delivery round, FIFO within a round.

use da_core::ProcessId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// An in-flight message awaiting delivery.
#[derive(Debug, Clone)]
pub(crate) struct InFlight<M> {
    pub round: u64,
    pub seq: u64,
    /// Round the message was sent in — kept so the engine's delivery
    /// latency histogram (`round - sent`) needs no side table.
    pub sent: u64,
    pub from: ProcessId,
    pub to: ProcessId,
    pub msg: M,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round && self.seq == other.seq
    }
}

impl<M> Eq for InFlight<M> {}

impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.round, self.seq).cmp(&(other.round, other.seq))
    }
}

/// Min-heap of in-flight messages ordered by `(delivery round, sequence)`.
///
/// The sequence number makes the queue stable: two messages scheduled for
/// the same round are delivered in send order, which keeps simulations
/// deterministic.
#[derive(Debug, Clone)]
pub(crate) struct MessageQueue<M> {
    heap: BinaryHeap<Reverse<InFlight<M>>>,
    next_seq: u64,
}

impl<M> MessageQueue<M> {
    pub fn new() -> Self {
        MessageQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Queues a message sent in round `sent` for delivery at `round`.
    pub fn push(&mut self, round: u64, sent: u64, from: ProcessId, to: ProcessId, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(InFlight {
            round,
            seq,
            sent,
            from,
            to,
            msg,
        }));
    }

    /// Removes and returns the next message due at or before `round`.
    pub fn pop_due(&mut self, round: u64) -> Option<InFlight<M>> {
        if self.heap.peek().is_some_and(|Reverse(m)| m.round <= round) {
            self.heap.pop().map(|Reverse(m)| m)
        } else {
            None
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Earliest delivery round among queued messages.
    pub fn next_round(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(m)| m.round)
    }

    /// All in-flight messages sorted by `(delivery round, sequence)` —
    /// i.e. in the exact order they would pop. Used by the model
    /// checker's state digest, where heap layout must not leak into the
    /// hash.
    pub fn snapshot_sorted(&self) -> Vec<&InFlight<M>> {
        let mut all: Vec<&InFlight<M>> = self.heap.iter().map(|Reverse(m)| m).collect();
        all.sort_by_key(|m| (m.round, m.seq));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_round() {
        let mut q = MessageQueue::new();
        q.push(1, 0, ProcessId(0), ProcessId(1), "a");
        q.push(1, 0, ProcessId(0), ProcessId(2), "b");
        q.push(1, 0, ProcessId(0), ProcessId(3), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_due(1).map(|m| m.msg)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn rounds_ordered() {
        let mut q = MessageQueue::new();
        q.push(3, 0, ProcessId(0), ProcessId(1), "late");
        q.push(1, 0, ProcessId(0), ProcessId(1), "early");
        assert_eq!(q.next_round(), Some(1));
        assert_eq!(q.pop_due(1).unwrap().msg, "early");
        assert!(q.pop_due(1).is_none(), "round-3 message is not yet due");
        assert_eq!(q.pop_due(3).unwrap().msg, "late");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_includes_overdue() {
        let mut q = MessageQueue::new();
        q.push(1, 0, ProcessId(0), ProcessId(1), "x");
        assert_eq!(q.pop_due(5).unwrap().msg, "x");
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = MessageQueue::new();
        assert!(q.is_empty());
        q.push(1, 0, ProcessId(0), ProcessId(1), 1u8);
        q.push(2, 0, ProcessId(0), ProcessId(1), 2u8);
        assert_eq!(q.len(), 2);
        let _ = q.pop_due(1);
        assert_eq!(q.len(), 1);
    }
}
