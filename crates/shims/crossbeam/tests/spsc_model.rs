//! Model-based property tests for the SPSC ring: a `VecDeque` of the
//! same capacity is the reference; every interleaving of pushes and
//! pops the generator produces must agree with it exactly — FIFO
//! order, `Full` exactly at capacity, `None` exactly when empty, and
//! clean wrap-around across many revolutions of the ring.

use crossbeam::queue::{spsc, PushError};
use da_tape::{check, prop_assert, prop_assert_eq};
use std::collections::VecDeque;

#[test]
fn ring_matches_a_vecdeque_reference() {
    check("ring_matches_a_vecdeque_reference", |t| {
        let capacity = t.range(1usize..=8);
        let ops = t.vec(0..400, |t| (t.weighted(0.5), t.range(0u16..1000)));
        let (mut tx, mut rx) = spsc(capacity);
        let mut model: VecDeque<u16> = VecDeque::new();
        for (is_push, value) in ops {
            if is_push {
                match tx.push(value) {
                    Ok(()) => {
                        prop_assert!(
                            model.len() < capacity,
                            "ring accepted a push beyond capacity"
                        );
                        model.push_back(value);
                    }
                    Err(PushError::Full(v)) => {
                        prop_assert_eq!(v, value, "Full must hand the value back");
                        prop_assert_eq!(
                            model.len(),
                            capacity,
                            "ring refused a push below capacity"
                        );
                    }
                    Err(PushError::Disconnected(_)) => {
                        prop_assert!(false, "consumer is alive; Disconnected is impossible");
                    }
                }
            } else {
                prop_assert_eq!(rx.pop(), model.pop_front());
            }
            prop_assert_eq!(tx.len(), model.len());
            prop_assert_eq!(rx.len(), model.len());
            prop_assert_eq!(rx.is_empty(), model.is_empty());
        }
        // Drain: everything still in flight comes out in FIFO order.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(rx.pop(), Some(expected));
        }
        prop_assert_eq!(rx.pop(), None);
        Ok(())
    });
}

#[test]
fn wrap_around_preserves_fifo_at_every_fill_level() {
    check("wrap_around_preserves_fifo_at_every_fill_level", |t| {
        let capacity = t.range(1usize..=5);
        let burst = t.range(1usize..=5);
        let rounds = t.range(1usize..=200);
        // Push `burst.min(capacity)` values then pop them, repeatedly —
        // the head/tail counters cross the capacity boundary at every
        // possible offset over the rounds.
        let (mut tx, mut rx) = spsc(capacity);
        let mut next = 0u64;
        let mut expect = 0u64;
        for _ in 0..rounds {
            for _ in 0..burst.min(capacity) {
                tx.push(next).unwrap();
                next += 1;
            }
            for _ in 0..burst.min(capacity) {
                prop_assert_eq!(rx.pop(), Some(expect));
                expect += 1;
            }
        }
        prop_assert_eq!(rx.pop(), None);
        Ok(())
    });
}
