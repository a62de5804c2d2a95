//! The delay wheel — the one timing structure of both substrates:
//! [`Envelope`]s that survived the channel wait here, bucketed by due
//! tick and lane, until their owner releases them.
//!
//! * **The simulator** owns one single-lane wheel. Each round it
//!   releases through the round ([`DelayWheel::release_through`]), keeps
//!   the due bucket it is shipped whole, delivers from it and hands the
//!   emptied allocation back ([`DelayWheel::restore`]).
//! * **A runtime worker's router** owns one wheel whose lanes are the
//!   destination workers. Every surviving send is scheduled once, at
//!   send time. At the end of its tick `t` the worker ships the buckets
//!   due at `t + lag` ([`DelayWheel::release_through`]): each moves out
//!   whole, becomes one lane batch, and is delivered from that same
//!   buffer at its due tick. By then every send that can fall due at
//!   `t + lag` has been made (each is at least `lag` ticks long), so a
//!   lane carries one batch per due tick.
//!
//! **A bucket is one `(due tick, lane)` run in scheduling order.** In
//! the simulator that is `(delivery round, send sequence)` order. In the
//! runtime it is one producer's sends to one consumer, in send order,
//! and the consumer delivers its producers' batches in worker-id order.
//! No sort, no comparison: the delivery sequence is a pure function of
//! `(tick, from, to, occurrence)`.
//!
//! Storage is a true ring buffer: `capacity × lanes` buckets, bucket
//! `(lane, t & (capacity − 1))` holding lane `lane`'s envelopes due at
//! tick `t` for any `t` in the live window `[next, next + capacity)`.
//! The capacity is rounded up to a power of two, so a bucket index is a
//! mask, not a division. Callers size the window from
//! `NetworkModel::max_latency()` — every latency model is bounded — and
//! buckets keep their allocation across laps, so the steady state
//! allocates nothing. A `BTreeMap` spillover keyed by `(due, lane)`
//! holds the rare envelope scheduled outside the window (a wheel sized
//! under its network's true ceiling, or a past-due straggler); because
//! the window only moves forward while anything is scheduled, every
//! spilled envelope for a `(tick, lane)` bucket was scheduled before any
//! ring envelope for the same bucket, so releasing spill-then-ring per
//! bucket preserves the exact per-lane scheduling order (pinned on
//! randomized schedules against the sorted map and the `(round, seq)`
//! heap this wheel replaced). An empty wheel holds no window: an
//! envelope scheduled outside it re-anchors it at the tick after the
//! envelope's send.

use crate::process::ProcessId;
use std::collections::BTreeMap;

/// The widest window, in ticks, a substrate sizes from its configuration:
/// link latency is config input, so the ring it sizes (and the worker
/// drift the pool derives from it) stops here and slower sends spill.
pub const MAX_RING_TICKS: u64 = 1024;

/// One in-flight message, from surviving the channel to delivery.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending process.
    pub from: ProcessId,
    /// Destination process.
    pub to: ProcessId,
    /// Tick during which the message was sent.
    pub sent_tick: u64,
    /// Tick at whose start the message becomes deliverable — always
    /// strictly greater than [`Envelope::sent_tick`]: the
    /// send-in-round-`n` / deliver-in-round-`n + k` channel contract of
    /// both substrates (`k = 1` on a perfect channel).
    pub due_tick: u64,
    /// The protocol message.
    pub msg: M,
}

/// Envelopes waiting for their due tick, bucketed by lane. `Clone` is
/// for the model checker's forked universes.
#[derive(Debug, Clone)]
pub struct DelayWheel<M> {
    /// Lanes the buckets are split by (destination workers in a runtime
    /// router; 1 in the simulator).
    lanes: usize,
    /// `capacity − 1` for the power-of-two number of due ticks the ring
    /// window spans.
    mask: u64,
    /// Bucket `lane * (mask + 1) + (t & mask)` holds lane `lane`'s
    /// envelopes due at `t` for `t ∈ [next, next + capacity)`.
    ring: Vec<Vec<Envelope<M>>>,
    /// First tick not yet released — the start of the ring's window.
    next: u64,
    /// Envelopes scheduled outside the ring window, keyed by
    /// `(due tick, lane)` — `BTreeMap` order is exactly release order.
    spill: BTreeMap<(u64, usize), Vec<Envelope<M>>>,
    len: usize,
}

impl<M> DelayWheel<M> {
    /// A wheel whose ring covers at least `capacity` consecutive due
    /// ticks (clamped to at least 1, rounded up to a power of two) for
    /// `lanes` lanes (clamped to at least 1). Size the window as
    /// `max latency + 1`: anything beyond it degrades to the spill map,
    /// never to a lost envelope. Buckets start unallocated.
    #[must_use]
    pub fn with_capacity(capacity: usize, lanes: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let lanes = lanes.max(1);
        DelayWheel {
            lanes,
            mask: capacity as u64 - 1,
            ring: (0..capacity * lanes).map(|_| Vec::new()).collect(),
            next: 0,
            spill: BTreeMap::new(),
            len: 0,
        }
    }

    /// The ring bucket of due tick `due` on `lane`.
    fn bucket(&self, due: u64, lane: usize) -> usize {
        lane * (self.mask as usize + 1) + (due & self.mask) as usize
    }

    /// True when `due` lies in the ring window `[next, next + capacity)`
    /// — one comparison, because the window never wraps (a release or a
    /// re-anchor keeps `next` at most `u64::MAX − mask`).
    fn in_window(&self, due: u64) -> bool {
        due.wrapping_sub(self.next) <= self.mask
    }

    /// Parks an envelope until its `due_tick`, in the bucket of `lane`.
    // The last hop of a send, which carries the envelope by value: out
    // of line, its first load of the envelope stalls on store forwarding.
    #[inline(always)]
    pub fn schedule(&mut self, lane: usize, envelope: Envelope<M>) {
        debug_assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let due = envelope.due_tick;
        // One unconditional push into the bucket chosen first: the
        // envelope is written straight into it, never staged.
        self.bucket_of(lane, due, envelope.sent_tick).push(envelope);
        self.len += 1;
    }

    /// The buffer an envelope sent at `sent` and due at `due` joins.
    #[inline]
    fn bucket_of(&mut self, lane: usize, due: u64, sent: u64) -> &mut Vec<Envelope<M>> {
        if self.in_window(due) {
            let bucket = self.bucket(due, lane);
            &mut self.ring[bucket]
        } else {
            self.bucket_outside(lane, due, sent)
        }
    }

    /// [`bucket_of`](Self::bucket_of)'s slow path, for a due tick outside
    /// the window: an empty wheel re-anchors its window at the tick after
    /// the send (every later send falls due no earlier); otherwise, or
    /// when the due tick is still beyond the window, the envelope spills.
    #[cold]
    #[inline(never)]
    fn bucket_outside(&mut self, lane: usize, due: u64, sent: u64) -> &mut Vec<Envelope<M>> {
        if self.len == 0 {
            self.next = sent.saturating_add(1).min(due).min(u64::MAX - self.mask);
        }
        if self.in_window(due) {
            let bucket = self.bucket(due, lane);
            &mut self.ring[bucket]
        } else {
            self.spill.entry((due, lane)).or_default()
        }
    }

    /// Moves out, whole, every bucket due at or before `through`, lane
    /// by lane, each lane's in due order. `ship(lane, bucket)` receives
    /// each non-empty bucket — scheduling order, one due tick — and
    /// returns an empty buffer for the bucket to keep in its place, so
    /// no envelope is copied. A `(due, lane)` bucket's spilled envelopes
    /// ship in the same run, ahead of the ring's; spilled envelopes due
    /// before the window ship first and those due beyond it last. The
    /// window then starts at `through + 1`: a wheel released through
    /// `u64::MAX` holds nothing and no window, and the next envelope
    /// scheduled re-anchors it.
    pub fn release_through(
        &mut self,
        through: u64,
        mut ship: impl FnMut(usize, Vec<Envelope<M>>) -> Vec<Envelope<M>>,
    ) {
        if let Some(before) = self.next.checked_sub(1) {
            self.release_spilled(through.min(before), &mut ship);
        }
        if through < self.next {
            return;
        }
        let last = through.min(self.next.saturating_add(self.mask));
        for lane in 0..self.lanes {
            for due in self.next..=last {
                if self.len == 0 {
                    break;
                }
                let slot = self.bucket(due, lane);
                let spilled = match self.spill.is_empty() {
                    true => None,
                    false => self.spill.remove(&(due, lane)),
                };
                if let Some(mut spilled) = spilled {
                    spilled.append(&mut self.ring[slot]);
                    self.len -= spilled.len();
                    drop(ship(lane, spilled));
                } else if !self.ring[slot].is_empty() {
                    self.len -= self.ring[slot].len();
                    let bucket = std::mem::take(&mut self.ring[slot]);
                    self.ring[slot] = ship(lane, bucket);
                }
            }
        }
        self.release_spilled(through, &mut ship);
        self.next = through.saturating_add(1).min(u64::MAX - self.mask);
    }

    /// Ships, in `(due, lane)` order, every spilled bucket due at or
    /// before `last` — the spill map's front.
    fn release_spilled(
        &mut self,
        last: u64,
        ship: &mut impl FnMut(usize, Vec<Envelope<M>>) -> Vec<Envelope<M>>,
    ) {
        while let Some(entry) = self.spill.first_entry() {
            let (due, lane) = *entry.key();
            if due > last {
                break;
            }
            let spilled = entry.remove();
            self.len -= spilled.len();
            drop(ship(lane, spilled));
        }
    }

    /// Takes back a bucket [`release_through`](Self::release_through)
    /// shipped and its caller kept (contents discarded), so the slot of
    /// the tick just released — reused `capacity` ticks later — does not
    /// have to grow again. A slot that already owns an allocation keeps
    /// its own. The simulator, which schedules *while* it delivers and so
    /// cannot hand a spare back from inside the release, does this once a
    /// round.
    pub fn restore(&mut self, mut spare: Vec<Envelope<M>>) {
        spare.clear();
        let released = self.next.saturating_sub(1);
        let bucket = self.bucket(released, 0);
        let slot = &mut self.ring[bucket];
        if slot.capacity() == 0 {
            *slot = spare;
        }
    }

    /// Every parked envelope in release order — what a state digest
    /// hashes and where the earliest due tick is read off.
    pub fn iter(&self) -> impl Iterator<Item = &Envelope<M>> {
        let window_end = self.next.saturating_add(self.mask + 1);
        let past_due = self.spill.range(..(self.next, 0)).flat_map(|(_, b)| b);
        let window = (self.next..window_end).flat_map(move |t| {
            (0..self.lanes).flat_map(move |lane| {
                let spilled = self.spill.get(&(t, lane)).into_iter().flatten();
                spilled.chain(&self.ring[self.bucket(t, lane)])
            })
        });
        let beyond = self.spill.range((window_end, 0)..).flat_map(|(_, b)| b);
        past_due.chain(window).chain(beyond)
    }

    /// Number of parked envelopes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The furthest due tick of a parked envelope, `None` when the wheel
    /// is empty — read off the buckets, so a send pays nothing for it.
    /// The runtime's scheduler uses this as a quiescence lower bound, and
    /// it is the only proof a held envelope gives: that envelope is in
    /// flight through the tick before, so no tick until then is quiet.
    #[must_use]
    pub fn due_horizon(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let beyond = self.spill.last_key_value().map(|(&(due, _), _)| due);
        let last = self.next.saturating_add(self.mask);
        let window = (self.next..=last)
            .rev()
            .find(|&due| (0..self.lanes).any(|lane| !self.ring[self.bucket(due, lane)].is_empty()));
        beyond.max(window)
    }

    /// Number of parked envelopes sitting in the spillover map rather
    /// than the ring (diagnostics: nonzero means the wheel was sized
    /// under the network's true latency ceiling).
    #[cfg(test)]
    fn spilled(&self) -> usize {
        self.spill.values().map(Vec::len).sum()
    }

    /// Empties the wheel, returning how many envelopes were discarded —
    /// the shutdown accounting path.
    pub fn discard_all(&mut self) -> usize {
        for bucket in &mut self.ring {
            bucket.clear();
        }
        self.spill.clear();
        std::mem::take(&mut self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn env(due_tick: u64, msg: u8) -> Envelope<u8> {
        Envelope {
            from: ProcessId(0),
            to: ProcessId(1),
            sent_tick: 0,
            due_tick,
            msg,
        }
    }

    /// Everything due through `tick`, the way the simulator drains a
    /// round: the first bucket shipped is moved out whole, any later one
    /// appended to it.
    fn drain(wheel: &mut DelayWheel<u8>, tick: u64) -> Vec<Envelope<u8>> {
        let mut due = Vec::new();
        wheel.release_through(tick, |_, mut bucket| {
            if due.is_empty() {
                std::mem::swap(&mut due, &mut bucket);
            } else {
                due.append(&mut bucket);
            }
            bucket
        });
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

        assert!(drain(&mut wheel, 2).is_empty());
        let due: Vec<u8> = drain(&mut wheel, 5).into_iter().map(|e| e.msg).collect();
        assert_eq!(due, vec![2, 3, 1], "due tick order, insertion order within");
        assert_eq!(wheel.len(), 1);
        assert_eq!(drain(&mut wheel, 9).len(), 1);
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
        let due: Vec<u8> = drain(&mut wheel, 4).into_iter().map(|e| e.msg).collect();
        assert_eq!(
            due,
            vec![10, 11, 20, 21],
            "lane order, arrival order within"
        );
        let due: Vec<u8> = drain(&mut wheel, 5).into_iter().map(|e| e.msg).collect();
        assert_eq!(due, vec![30]);
    }

    #[test]
    fn take_due_catches_up_past_ticks() {
        let mut wheel = DelayWheel::with_capacity(8, 1);
        wheel.schedule(0, env(1, 1));
        wheel.schedule(0, env(2, 2));
        // A driver that skipped ahead still gets everything owed.
        assert_eq!(drain(&mut wheel, 100).len(), 2);
    }

    #[test]
    fn due_horizon_tracks_the_furthest_parked_envelope() {
        let mut wheel = DelayWheel::with_capacity(8, 1);
        assert_eq!(wheel.due_horizon(), None);
        wheel.schedule(0, env(3, 1));
        wheel.schedule(0, env(7, 2));
        assert_eq!(wheel.due_horizon(), Some(7));
        drain(&mut wheel, 3);
        // The due-7 envelope is still parked: the horizon holds.
        assert_eq!(wheel.due_horizon(), Some(7));
        drain(&mut wheel, 7);
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
        assert!(drain(&mut wheel, 100).is_empty());
    }

    #[test]
    fn in_window_envelopes_never_spill() {
        let mut wheel = DelayWheel::with_capacity(4, 2);
        for tick in 0..100u64 {
            // Latency 1..=3 with capacity 4: always inside the window.
            wheel.schedule(0, env(tick + 1, 0));
            wheel.schedule(1, env(tick + 3, 1));
            assert_eq!(wheel.spilled(), 0, "tick {tick}: ring must absorb all");
            drain(&mut wheel, tick + 1);
        }
    }

    #[test]
    fn beyond_window_envelopes_spill_and_still_release() {
        let mut wheel = DelayWheel::with_capacity(2, 1);
        wheel.schedule(0, env(50, 7));
        assert_eq!(wheel.spilled(), 1, "due 50 is far outside [0, 2)");
        assert!(drain(&mut wheel, 49).is_empty());
        let due = drain(&mut wheel, 50);
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
        let released: Vec<u8> = drain(&mut wheel, 1).into_iter().map(|e| e.msg).collect();
        assert_eq!(released, vec![1]);
        wheel.schedule(0, env(5, 5));
        assert_eq!(wheel.spilled(), 0, "window is now [2, 6): due 5 fits");
        assert!(drain(&mut wheel, 4).is_empty());
        let released: Vec<u8> = drain(&mut wheel, 5).into_iter().map(|e| e.msg).collect();
        assert_eq!(released, vec![5]);
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

        fn drain_through(&mut self, tick: u64) -> Vec<Envelope<M>> {
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

    /// For randomized latency schedules the ring wheel and the BTreeMap
    /// reference release identical envelope sequences per lane — on one
    /// lane, the simulator's, the whole sequence — at every drain point,
    /// across lane counts and capacities both generous and deliberately
    /// undersized (where the ring must lean on its spillover path).
    #[test]
    fn ring_wheel_matches_btreemap_reference() {
        for (seed, capacity, lanes) in [
            (1u64, 1usize, 1usize),
            (2, 2, 2),
            (3, 5, 3),
            (4, 8, 1),
            (5, 64, 4),
        ] {
            // Drained every tick up to the clock (with skipped ticks,
            // so catch-up drains are covered).
            matches_reference(seed, capacity, lanes, 1, 0);
        }
    }

    /// Releases through `through`, collecting each shipped bucket as
    /// `(lane, [(due, msg)])` and handing back a fresh spare.
    fn release(wheel: &mut DelayWheel<u8>, through: u64) -> Vec<(usize, Vec<(u64, u8)>)> {
        let mut shipped = Vec::new();
        wheel.release_through(through, |lane, bucket| {
            assert!(!bucket.is_empty(), "only non-empty buckets ship");
            shipped.push((lane, bucket.iter().map(|e| (e.due_tick, e.msg)).collect()));
            Vec::new()
        });
        shipped
    }

    #[test]
    fn release_through_ships_whole_buckets_lane_by_lane_in_due_order() {
        let mut wheel = DelayWheel::with_capacity(8, 2);
        wheel.schedule(1, env(3, 1));
        wheel.schedule(0, env(4, 2));
        wheel.schedule(1, env(3, 3));
        wheel.schedule(0, env(3, 4));
        wheel.schedule(0, env(6, 5));
        assert_eq!(
            release(&mut wheel, 4),
            vec![
                (0, vec![(3, 4)]),
                (0, vec![(4, 2)]),
                (1, vec![(3, 1), (3, 3)]),
            ]
        );
        assert_eq!((wheel.len(), wheel.due_horizon()), (1, Some(6)));
        assert!(release(&mut wheel, 5).is_empty(), "due 6 stays held");
        assert_eq!(release(&mut wheel, 6), vec![(0, vec![(6, 5)])]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn a_released_bucket_keeps_its_allocation_and_takes_the_spare() {
        let mut wheel = DelayWheel::with_capacity(2, 1);
        wheel.schedule(0, env(1, 1));
        let spare: Vec<Envelope<u8>> = Vec::with_capacity(16);
        let spare_at = spare.as_ptr();
        let mut spare = Some(spare);
        let mut shipped = None;
        wheel.release_through(1, |_, bucket| {
            shipped = Some(bucket);
            spare.take().unwrap()
        });
        assert_eq!(shipped.unwrap()[0].msg, 1, "moved out whole");
        // Due 3 laps onto due 1's slot, which now owns the spare.
        wheel.schedule(0, env(3, 3));
        wheel.release_through(3, |_, bucket| {
            assert_eq!(bucket.as_ptr(), spare_at);
            Vec::new()
        });
    }

    #[test]
    fn a_full_release_reanchors_at_the_next_send() {
        let mut wheel = DelayWheel::with_capacity(4, 1);
        for tick in 10..20u64 {
            // Latency 1..=3 sent at `tick`, released in full every tick:
            // the window restarts at each tick's first send, so nothing
            // spills and nothing is lost.
            let sent = |due, msg| Envelope {
                sent_tick: tick,
                ..env(due, msg)
            };
            wheel.schedule(0, sent(tick + 3, 1));
            wheel.schedule(0, sent(tick + 1, 2));
            wheel.schedule(0, sent(tick + 2, 3));
            assert_eq!(wheel.spilled(), 0, "tick {tick}");
            let shipped = release(&mut wheel, u64::MAX);
            let msgs: Vec<u8> = shipped.iter().flat_map(|(_, b)| b).map(|e| e.1).collect();
            assert_eq!(msgs, vec![2, 3, 1], "due order");
            assert!(wheel.is_empty());
        }
    }

    /// Randomized schedules released a fixed lag ahead of the clock, as
    /// a runtime router does (with past-due stragglers and skipped
    /// ticks), match the reference per lane too.
    #[test]
    fn release_through_matches_btreemap_reference() {
        for (seed, capacity, lanes, lag) in [
            (1u64, 1usize, 1usize, 1u64),
            (2, 2, 2, 1),
            (3, 5, 3, 2),
            (4, 8, 2, 3),
            (5, 64, 4, 1),
        ] {
            matches_reference(seed, capacity, lanes, lag, lag);
        }
    }

    /// Schedules latencies `min_latency..=40` — far beyond the smaller
    /// capacities, so the spill path is exercised hard — and releases
    /// through `ahead` ticks past the clock on four ticks in five: each
    /// lane's shipments, concatenated, are the reference's release
    /// sequence for that lane at every release and in the final
    /// catch-up, and every shipment is one `(due, lane)` run.
    fn matches_reference(seed: u64, capacity: usize, lanes: usize, min_latency: u64, ahead: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng as _, SeedableRng as _};

        // The lane rides in `from`, so the reference's releases say
        // which lane they came from.
        let on = |lane: usize, due, msg| Envelope {
            from: ProcessId(lane as u32),
            ..env(due, msg)
        };
        let check = |wheel: &mut DelayWheel<u8>, reference: &mut ReferenceWheel<u8>, through| {
            let got = release(wheel, through);
            assert!(got.iter().all(|(_, b)| b.iter().all(|e| e.0 == b[0].0)));
            let want = reference.drain_through(through);
            for lane in 0..lanes {
                let got = got.iter().filter(|(l, _)| *l == lane);
                let got: Vec<(u64, u8)> = got.flat_map(|(_, b)| b.iter().copied()).collect();
                let want = want.iter().filter(|e| e.from.index() == lane);
                let want: Vec<(u64, u8)> = want.map(|e| (e.due_tick, e.msg)).collect();
                assert_eq!(
                    got, want,
                    "seed {seed} capacity {capacity} through {through}"
                );
            }
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut wheel = DelayWheel::with_capacity(capacity, lanes);
        let mut reference = ReferenceWheel::new();
        let mut msg = 0u8;
        for tick in 0..200u64 {
            for _ in 0..rng.gen_range(0..5usize) {
                let due = tick + rng.gen_range(min_latency..=40u64);
                let lane = rng.gen_range(0..lanes);
                wheel.schedule(lane, on(lane, due, msg));
                reference.schedule(lane, on(lane, due, msg));
                msg = msg.wrapping_add(1);
            }
            if !rng.gen_bool(0.2) {
                check(&mut wheel, &mut reference, tick + ahead);
            }
        }
        check(&mut wheel, &mut reference, u64::MAX);
        assert!(wheel.is_empty());
    }

    /// [`drain`] as the message bytes it released.
    fn taken(wheel: &mut DelayWheel<u8>, tick: u64) -> Vec<u8> {
        drain(wheel, tick).into_iter().map(|e| e.msg).collect()
    }

    #[test]
    fn fifo_within_round() {
        let mut wheel = DelayWheel::with_capacity(2, 1);
        for msg in *b"abc" {
            wheel.schedule(0, env(1, msg));
        }
        assert_eq!(taken(&mut wheel, 0), b"");
        assert_eq!(taken(&mut wheel, 1), b"abc", "scheduling order");
    }

    #[test]
    fn rounds_ordered() {
        let mut wheel = DelayWheel::with_capacity(4, 1);
        wheel.schedule(0, env(3, b'l'));
        wheel.schedule(0, env(1, b'e'));
        assert_eq!(wheel.iter().next().map(|e| e.due_tick), Some(1));
        assert_eq!(taken(&mut wheel, 0), b"");
        assert_eq!(taken(&mut wheel, 1), b"e");
        assert_eq!(
            taken(&mut wheel, 2),
            b"",
            "the due-3 message is not yet due"
        );
        assert_eq!(wheel.iter().next().map(|e| e.due_tick), Some(3));
        assert_eq!(taken(&mut wheel, 3), b"l");
        assert!(wheel.is_empty() && wheel.iter().next().is_none());
    }

    #[test]
    fn pop_due_includes_overdue() {
        let mut wheel = DelayWheel::with_capacity(2, 1);
        wheel.schedule(0, env(1, b'x'));
        assert_eq!(taken(&mut wheel, 5), b"x");
        // Scheduled behind the window: released by the next drain.
        wheel.schedule(0, env(2, b'y'));
        assert_eq!(taken(&mut wheel, 6), b"y");
    }

    #[test]
    fn len_tracks_contents() {
        let mut wheel = DelayWheel::with_capacity(2, 1);
        assert!(wheel.is_empty());
        wheel.schedule(0, env(1, 1));
        wheel.schedule(0, env(2, 2));
        assert_eq!(wheel.len(), 2);
        assert_eq!(taken(&mut wheel, 1).len(), 1);
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn restored_bucket_keeps_its_allocation_for_the_next_lap() {
        let mut wheel = DelayWheel::with_capacity(2, 1);
        wheel.schedule(0, env(0, 1));
        let due = drain(&mut wheel, 0);
        let allocation = due.as_ptr();
        // A non-empty hand-back is discarded, never re-released.
        wheel.restore(due);
        assert!(drain(&mut wheel, 1).is_empty());
        // Tick 2 laps onto tick 0's slot and reuses its buffer.
        wheel.schedule(0, env(2, 2));
        let due = drain(&mut wheel, 2);
        assert_eq!((due[0].msg, due.as_ptr()), (2, allocation));
    }

    /// What the simulator parked in-flight messages in before it ran on
    /// the wheel: a min-heap on `(delivery round, send sequence)`. Kept
    /// as the reference the wheel's release order must match exactly.
    #[derive(Default)]
    struct RoundSeqHeap {
        heap: BinaryHeap<Reverse<(u64, u64, u8)>>,
        next_seq: u64,
    }

    impl RoundSeqHeap {
        fn push(&mut self, round: u64, msg: u8) {
            self.heap.push(Reverse((round, self.next_seq, msg)));
            self.next_seq += 1;
        }

        fn pop_due(&mut self, round: u64) -> Option<(u64, u8)> {
            let Reverse((due, _, msg)) = *self.heap.peek()?;
            (due <= round).then(|| {
                self.heap.pop();
                (due, msg)
            })
        }
    }

    /// Randomized schedules of sends with latency 1..=8 — beyond the
    /// window of the smaller rings, so the spill path runs — interleaved
    /// with drains at skipping ticks: the single-lane wheel hands out
    /// the same envelopes in the same order as the `(round, seq)` heap,
    /// drained and restored as the simulator does, and its in-order walk
    /// is the heap's sorted snapshot at every step.
    #[test]
    fn wheel_matches_round_seq_heap_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng as _, SeedableRng as _};

        for (seed, capacity) in [(1u64, 1usize), (2, 2), (3, 4), (4, 9), (5, 64)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut wheel = DelayWheel::with_capacity(capacity, 1);
            let mut heap = RoundSeqHeap::default();
            let mut msg = 0u8;
            let mut send = |wheel: &mut DelayWheel<u8>, heap: &mut RoundSeqHeap, due: u64| {
                wheel.schedule(0, env(due, msg));
                heap.push(due, msg);
                msg = msg.wrapping_add(1);
            };
            for tick in 0..300u64 {
                if rng.gen_bool(0.15) {
                    continue; // skipped tick: the next drain catches up
                }
                let mut due = drain(&mut wheel, tick);
                for e in due.drain(..) {
                    assert_eq!(heap.pop_due(tick), Some((e.due_tick, e.msg)));
                    // Deliveries send, as protocol hooks do.
                    if rng.gen_bool(0.5) {
                        send(&mut wheel, &mut heap, tick + rng.gen_range(1..=8u64));
                    }
                }
                assert_eq!(heap.pop_due(tick), None, "wheel released too little");
                wheel.restore(due);
                for _ in 0..rng.gen_range(0..4usize) {
                    send(&mut wheel, &mut heap, tick + rng.gen_range(1..=8u64));
                }
                assert_eq!(wheel.len(), heap.heap.len());
                // Ascending `Reverse` is descending `(round, seq)`.
                let sorted = heap.heap.clone().into_sorted_vec();
                let popping = sorted
                    .iter()
                    .rev()
                    .map(|Reverse((due, _, msg))| (*due, *msg));
                assert!(wheel.iter().map(|e| (e.due_tick, e.msg)).eq(popping));
            }
        }
    }
}
