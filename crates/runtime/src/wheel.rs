//! The per-worker delay wheel: envelopes that survived the channel but
//! are not yet due park here until the owning worker's clock reaches
//! their due tick.
//!
//! The wheel is keyed off the worker's *local* clock — under the
//! bounded-lag scheduler there is no global tick counter. A worker
//! sweeps its incoming lanes at the start of its tick `t` and schedules
//! every envelope (all are due strictly after their send tick, and
//! peers' clocks may run ahead, so parking is the norm, not the
//! exception); [`DelayWheel::take_due_into`] then releases exactly the
//! messages the channel contract owes that tick.
//!
//! **Buckets are per producer lane.** Since the lane-matrix transport,
//! delivery order within a tick is a structural guarantee, not an
//! accident of thread timing: slot `(t, lane)` holds the envelopes
//! worker `lane` sent here due at `t`, in lane-FIFO (= send) order, and
//! a drain releases tick `t`'s buckets in lane order `0..workers`. No
//! sort, no comparison — the merged delivery sequence is a pure
//! function of `(tick, from, to, occurrence)` because each component
//! order is.
//!
//! Storage is a true ring buffer: `capacity × lanes` pre-allocated
//! buckets, bucket `(t % capacity, lane)` holding lane `lane`'s
//! envelopes due at tick `t` for any `t` in the wheel's live window
//! `[next, next + capacity)`. The runtime sizes the window from
//! `network.max_latency()` plus the scheduler's lag bound — every
//! latency model is bounded, so in-horizon envelopes land in the ring
//! with zero per-tick allocation (buckets are drained in place and keep
//! their capacity). A `BTreeMap` spillover keyed by `(due, lane)` holds
//! the rare envelope scheduled outside the window (a caller sizing the
//! wheel smaller than its network's true ceiling, or a past-due
//! straggler); because the window only moves forward, every spilled
//! envelope for a `(tick, lane)` bucket was scheduled before any ring
//! envelope for the same bucket, so releasing spill-then-ring per
//! bucket preserves the exact per-lane arrival order
//! (`ring_wheel_matches_btreemap_reference` pins the equivalence down
//! on randomized schedules).

use crate::transport::Envelope;
use std::collections::BTreeMap;

/// Envelopes parked until their delivery tick (one wheel per worker),
/// bucketed by the producer lane they arrived on.
#[derive(Debug)]
pub(crate) struct DelayWheel<M> {
    /// Producer lanes feeding this wheel (= workers in the pool).
    lanes: usize,
    /// Due ticks the ring window spans.
    capacity: usize,
    /// Bucket `(t % capacity) * lanes + lane` holds lane `lane`'s
    /// envelopes due at `t` for `t ∈ [next, next + capacity)`.
    ring: Vec<Vec<Envelope<M>>>,
    /// First tick not yet released — the start of the ring's window.
    next: u64,
    /// Envelopes scheduled outside the ring window, keyed by
    /// `(due tick, lane)` — `BTreeMap` order is exactly release order.
    spill: BTreeMap<(u64, usize), Vec<Envelope<M>>>,
    len: usize,
    /// Furthest due tick ever scheduled (monotone; see
    /// [`DelayWheel::due_horizon`] for why monotone is sound).
    max_due: u64,
}

impl<M> DelayWheel<M> {
    /// A wheel whose ring covers `capacity` consecutive due ticks
    /// (clamped to at least 1) for `lanes` producer lanes (clamped to at
    /// least 1). Size the window as `max latency + lag bound`: at local
    /// tick `t` a peer running `lag` ahead can send envelopes due up to
    /// `t + lag + max_latency`, and anything beyond the window degrades
    /// to the spill map, never to a lost envelope.
    pub(crate) fn with_capacity(capacity: usize, lanes: usize) -> Self {
        let capacity = capacity.max(1);
        let lanes = lanes.max(1);
        DelayWheel {
            lanes,
            capacity,
            ring: (0..capacity * lanes).map(|_| Vec::new()).collect(),
            next: 0,
            spill: BTreeMap::new(),
            len: 0,
            max_due: 0,
        }
    }

    /// Parks an envelope until its `due_tick`, in the bucket of the
    /// producer lane it arrived on.
    pub(crate) fn schedule(&mut self, lane: usize, envelope: Envelope<M>) {
        debug_assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let due = envelope.due_tick;
        if due >= self.next && due - self.next < self.capacity as u64 {
            let bucket = (due % self.capacity as u64) as usize * self.lanes + lane;
            self.ring[bucket].push(envelope);
        } else {
            self.spill.entry((due, lane)).or_default().push(envelope);
        }
        self.len += 1;
        self.max_due = self.max_due.max(due);
    }

    /// Appends every envelope due at or before `tick` to `out`: earliest
    /// due tick first, producer lane order within a tick, arrival order
    /// within a lane. The caller's buffer is reused across ticks, so the
    /// steady-state drain allocates nothing.
    pub(crate) fn take_due_into(&mut self, tick: u64, out: &mut Vec<Envelope<M>>) {
        let start = out.len();
        // Past-due stragglers (scheduled with due < next): smallest
        // (due, lane) keys in the wheel, released first.
        while let Some(entry) = self.spill.first_entry() {
            let (due, _) = *entry.key();
            if due >= self.next || due > tick {
                break;
            }
            let mut spilled = entry.remove();
            out.append(&mut spilled);
        }
        while self.next <= tick {
            if out.len() - start == self.len {
                // Wheel is empty: slide the window in one step.
                self.next = tick + 1;
                break;
            }
            let t = self.next;
            let base = (t % self.capacity as u64) as usize * self.lanes;
            for lane in 0..self.lanes {
                if !self.spill.is_empty() {
                    if let Some(mut spilled) = self.spill.remove(&(t, lane)) {
                        out.append(&mut spilled);
                    }
                }
                // Drain in place so the bucket keeps its allocation for
                // the tick `capacity` steps from now.
                out.append(&mut self.ring[base + lane]);
            }
            self.next += 1;
        }
        self.len -= out.len() - start;
    }

    /// Number of parked envelopes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The furthest due tick with an envelope *provably* still parked,
    /// `None` when the wheel is empty.
    ///
    /// Tracking the monotone maximum of every scheduled due tick is
    /// enough: envelopes only ever leave the wheel at their own due tick
    /// (shutdown's [`DelayWheel::discard_all`] aside), so while the
    /// wheel is non-empty its pending dues all lie in
    /// `(released.., max_due]` — meaning the envelope that set `max_due`
    /// has not been released yet and stays parked through `max_due − 1`.
    /// The scheduler uses this as a quiescence lower bound: every tick
    /// before `max_due` reports `pending > 0` and is therefore loud.
    pub(crate) fn due_horizon(&self) -> Option<u64> {
        (self.len > 0).then_some(self.max_due)
    }

    /// Number of parked envelopes sitting in the spillover map rather
    /// than the ring (diagnostics: nonzero means the wheel was sized
    /// under the network's true latency ceiling).
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> usize {
        self.spill.values().map(Vec::len).sum()
    }

    /// Empties the wheel, returning how many envelopes were discarded —
    /// the shutdown accounting path.
    pub(crate) fn discard_all(&mut self) -> usize {
        for bucket in &mut self.ring {
            bucket.clear();
        }
        self.spill.clear();
        // Discarding breaks `max_due`'s "still parked" proof — reset it
        // so a refilled wheel starts from honest horizons.
        self.max_due = 0;
        std::mem::take(&mut self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::ProcessId;

    fn env(due_tick: u64, msg: u8) -> Envelope<u8> {
        Envelope {
            from: ProcessId(0),
            to: ProcessId(1),
            sent_tick: 0,
            due_tick,
            msg,
        }
    }

    /// Owned-`Vec` drain for test ergonomics.
    fn take_due(wheel: &mut DelayWheel<u8>, tick: u64) -> Vec<Envelope<u8>> {
        let mut due = Vec::new();
        wheel.take_due_into(tick, &mut due);
        due
    }

    #[test]
    fn releases_in_due_order() {
        let mut wheel = DelayWheel::with_capacity(8, 1);
        wheel.schedule(0, env(5, 1));
        wheel.schedule(0, env(3, 2));
        wheel.schedule(0, env(3, 3));
        wheel.schedule(0, env(9, 4));
        assert_eq!(wheel.len(), 4);

        assert!(take_due(&mut wheel, 2).is_empty());
        let due: Vec<u8> = take_due(&mut wheel, 5).into_iter().map(|e| e.msg).collect();
        assert_eq!(due, vec![2, 3, 1], "due tick order, insertion order within");
        assert_eq!(wheel.len(), 1);
        assert_eq!(take_due(&mut wheel, 9).len(), 1);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn lanes_release_in_worker_id_order_within_a_tick() {
        // Envelopes arrive interleaved across lanes; each tick releases
        // lane 0's arrivals (in order), then lane 1's, then lane 2's.
        let mut wheel = DelayWheel::with_capacity(8, 3);
        wheel.schedule(2, env(4, 20));
        wheel.schedule(0, env(4, 10));
        wheel.schedule(2, env(4, 21));
        wheel.schedule(1, env(5, 30));
        wheel.schedule(0, env(4, 11));
        let due: Vec<u8> = take_due(&mut wheel, 4).into_iter().map(|e| e.msg).collect();
        assert_eq!(
            due,
            vec![10, 11, 20, 21],
            "lane order, arrival order within"
        );
        let due: Vec<u8> = take_due(&mut wheel, 5).into_iter().map(|e| e.msg).collect();
        assert_eq!(due, vec![30]);
    }

    #[test]
    fn take_due_catches_up_past_ticks() {
        let mut wheel = DelayWheel::with_capacity(8, 1);
        wheel.schedule(0, env(1, 1));
        wheel.schedule(0, env(2, 2));
        // A driver that skipped ahead still gets everything owed.
        assert_eq!(take_due(&mut wheel, 100).len(), 2);
    }

    #[test]
    fn due_horizon_tracks_the_furthest_parked_envelope() {
        let mut wheel = DelayWheel::with_capacity(8, 1);
        assert_eq!(wheel.due_horizon(), None);
        wheel.schedule(0, env(3, 1));
        wheel.schedule(0, env(7, 2));
        assert_eq!(wheel.due_horizon(), Some(7));
        take_due(&mut wheel, 3);
        // The due-7 envelope is still parked: the horizon holds.
        assert_eq!(wheel.due_horizon(), Some(7));
        take_due(&mut wheel, 7);
        assert_eq!(wheel.due_horizon(), None, "empty wheel proves nothing");
        wheel.discard_all();
        wheel.schedule(0, env(9, 3));
        assert_eq!(wheel.due_horizon(), Some(9));
    }

    #[test]
    fn discard_all_counts_and_empties() {
        let mut wheel = DelayWheel::with_capacity(8, 2);
        wheel.schedule(0, env(7, 1));
        wheel.schedule(1, env(8, 2));
        assert_eq!(wheel.discard_all(), 2);
        assert_eq!(wheel.len(), 0);
        assert!(take_due(&mut wheel, 100).is_empty());
    }

    #[test]
    fn in_window_envelopes_never_spill() {
        let mut wheel = DelayWheel::with_capacity(4, 2);
        for tick in 0..100u64 {
            // Latency 1..=3 with capacity 4: always inside the window.
            wheel.schedule(0, env(tick + 1, 0));
            wheel.schedule(1, env(tick + 3, 1));
            assert_eq!(wheel.spilled(), 0, "tick {tick}: ring must absorb all");
            take_due(&mut wheel, tick + 1);
        }
    }

    #[test]
    fn beyond_window_envelopes_spill_and_still_release() {
        let mut wheel = DelayWheel::with_capacity(2, 1);
        wheel.schedule(0, env(50, 7));
        assert_eq!(wheel.spilled(), 1, "due 50 is far outside [0, 2)");
        assert!(take_due(&mut wheel, 49).is_empty());
        let due = take_due(&mut wheel, 50);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].msg, 7);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn window_slides_so_reused_slots_stay_distinct() {
        // Due ticks 1 and 5 share slot index 1 at capacity 4; the window
        // position must keep them apart.
        let mut wheel = DelayWheel::with_capacity(4, 1);
        wheel.schedule(0, env(1, 1));
        let released: Vec<u8> = take_due(&mut wheel, 1).into_iter().map(|e| e.msg).collect();
        assert_eq!(released, vec![1]);
        wheel.schedule(0, env(5, 5));
        assert_eq!(wheel.spilled(), 0, "window is now [2, 6): due 5 fits");
        assert!(take_due(&mut wheel, 4).is_empty());
        let released: Vec<u8> = take_due(&mut wheel, 5).into_iter().map(|e| e.msg).collect();
        assert_eq!(released, vec![5]);
    }

    #[test]
    fn reused_drain_buffer_appends_after_existing_contents() {
        let mut wheel = DelayWheel::with_capacity(4, 1);
        wheel.schedule(0, env(1, 9));
        let mut buf = vec![env(0, 1)];
        wheel.take_due_into(1, &mut buf);
        assert_eq!(buf.iter().map(|e| e.msg).collect::<Vec<_>>(), vec![1, 9]);
        assert_eq!(wheel.len(), 0);
    }

    /// The old wheel *was* a `BTreeMap` keyed by due tick; keep its
    /// per-lane generalisation as the in-test reference model the ring
    /// must match exactly.
    struct ReferenceWheel<M> {
        slots: BTreeMap<(u64, usize), Vec<Envelope<M>>>,
    }

    impl<M> ReferenceWheel<M> {
        fn new() -> Self {
            ReferenceWheel {
                slots: BTreeMap::new(),
            }
        }

        fn schedule(&mut self, lane: usize, envelope: Envelope<M>) {
            self.slots
                .entry((envelope.due_tick, lane))
                .or_default()
                .push(envelope);
        }

        fn take_due(&mut self, tick: u64) -> Vec<Envelope<M>> {
            let mut due = Vec::new();
            while let Some(entry) = self.slots.first_entry() {
                if entry.key().0 > tick {
                    break;
                }
                due.extend(entry.remove());
            }
            due
        }
    }

    /// Satellite requirement: for randomized latency schedules the ring
    /// wheel and the BTreeMap reference release identical envelope
    /// sequences — same envelopes, same order, at every drain point —
    /// across lane counts and capacities both generous and deliberately
    /// undersized (where the ring must lean on its spillover path).
    #[test]
    fn ring_wheel_matches_btreemap_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng as _, SeedableRng as _};

        for (seed, capacity, lanes) in [
            (1u64, 1usize, 1usize),
            (2, 2, 2),
            (3, 5, 3),
            (4, 8, 1),
            (5, 64, 4),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ring = DelayWheel::with_capacity(capacity, lanes);
            let mut reference = ReferenceWheel::new();
            let mut msg = 0u8;
            for tick in 0..200u64 {
                for _ in 0..rng.gen_range(0..5usize) {
                    // Latencies up to 40 ticks: far beyond the smaller
                    // capacities, so the spill path is exercised hard.
                    let due = tick + rng.gen_range(1..=40u64);
                    let lane = rng.gen_range(0..lanes);
                    ring.schedule(lane, env(due, msg));
                    reference.schedule(lane, env(due, msg));
                    msg = msg.wrapping_add(1);
                }
                // Occasionally skip ticks so catch-up drains are covered.
                if rng.gen_bool(0.2) {
                    continue;
                }
                let got: Vec<(u64, u8)> = take_due(&mut ring, tick)
                    .into_iter()
                    .map(|e| (e.due_tick, e.msg))
                    .collect();
                let want: Vec<(u64, u8)> = reference
                    .take_due(tick)
                    .into_iter()
                    .map(|e| (e.due_tick, e.msg))
                    .collect();
                assert_eq!(
                    got, want,
                    "seed {seed} capacity {capacity} lanes {lanes} tick {tick}"
                );
            }
            // Final catch-up far past the end releases the stragglers
            // identically too.
            let got: Vec<(u64, u8)> = take_due(&mut ring, 500)
                .into_iter()
                .map(|e| (e.due_tick, e.msg))
                .collect();
            let want: Vec<(u64, u8)> = reference
                .take_due(500)
                .into_iter()
                .map(|e| (e.due_tick, e.msg))
                .collect();
            assert_eq!(got, want, "seed {seed} capacity {capacity} final drain");
            assert_eq!(ring.len(), 0);
        }
    }
}
