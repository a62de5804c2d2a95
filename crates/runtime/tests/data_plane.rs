//! Data-plane allocation discipline, asserted from outside the crate
//! with a counting global allocator (the library itself is
//! `forbid(unsafe_code)`; an integration test can host the `unsafe
//! impl GlobalAlloc` the hook needs).
//!
//! Two invariants of the lock-free lane matrix:
//!
//! * **Zero steady-state allocations** — once the buffer pool has
//!   minted its working set, a send → flush → sweep → return cycle
//!   touches the allocator exactly zero times, at any number of ticks.
//! * **Taken == returned** — every buffer the pool hands out comes back
//!   to rest in it after a full drain, and a mid-flight stop (consumers
//!   dropped with batches still on the lanes) frees the in-transit
//!   envelopes exactly once instead of leaking them.

use da_core::channel::ChannelConfig;
use da_core::ProcessId;
use da_runtime::{lane_matrix, Envelope, FaultyRouter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Forwards to the system allocator, counting every allocation (and
/// every growth-reallocation, via the default `realloc` calling back
/// into `alloc`) made by the calling thread.
struct CountingAllocator;

thread_local! {
    /// Per-thread, so the test harness's own threads (spawning the next
    /// test, printing results) cannot leak into a measurement.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown go uncounted.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_ticks_allocate_nothing_on_the_data_plane() {
    const WORKERS: usize = 2;
    const FANOUT: u32 = 8;

    let (mut hubs, mut inboxes) = lane_matrix::<u64>(WORKERS, 64);
    let mut router = FaultyRouter::new(hubs.remove(0), ChannelConfig::reliable(), 7);
    // hubs[1] stays alive: a closed lane would re-route the flush into
    // the dropped_closed path instead of the steady-state cycle.

    let mut run_tick = |tick: u64| {
        for to in 0..FANOUT {
            let _ = router.send(ProcessId(0), ProcessId(to), tick, tick);
        }
        let report = router.flush();
        assert_eq!(report.dropped_closed, 0, "all lanes stay open");
        assert_eq!(report.envelopes, u64::from(FANOUT));
        for inbox in &mut inboxes {
            inbox.sweep(|_, env| {
                std::hint::black_box(env.msg);
            });
        }
    };

    // Warm-up: the pool mints its working set, the coalescing slots and
    // the occurrence-free reliable path reach their final footprint.
    for tick in 0..100 {
        run_tick(tick);
    }

    let before = ALLOCATIONS.get();
    for tick in 100..1100 {
        run_tick(tick);
    }
    let delta = ALLOCATIONS.get() - before;
    assert_eq!(
        delta, 0,
        "1000 steady-state ticks must not touch the allocator"
    );

    let pool = router.hub().pool();
    assert!(pool.minted() > 0, "the warm-up minted a working set");
}

#[test]
fn batch_pool_balances_taken_and_returned_including_mid_flight_stop() {
    // Full round trips: every buffer taken from the pool is back at
    // rest after the consumer drains and the return lane is reclaimed.
    let (mut hubs, mut inboxes) = lane_matrix::<u64>(2, 8);
    let mut hub = hubs.remove(0);
    for round in 0..100u64 {
        let mut buf = hub.pool().take();
        for i in 0..4u32 {
            buf.push(Envelope {
                from: ProcessId(0),
                to: ProcessId(1),
                sent_tick: round,
                due_tick: round + 1,
                msg: u64::from(i),
            });
        }
        hub.send_batch(1, buf).expect("lane open");
        let mut seen = 0;
        inboxes[1].sweep(|_, _| seen += 1);
        assert_eq!(seen, 4);
    }
    let minted = hub.pool().minted();
    assert_eq!(minted, 1, "one buffer cycles through all 100 rounds");
    assert_eq!(
        hub.pool().pooled() as u64,
        minted,
        "everything taken has been returned"
    );

    // Mid-flight stop: batches still on the lanes when the consumer
    // side is torn down are freed exactly once — the Arc token's count
    // returns to 1, so nothing leaked and nothing double-dropped.
    let token = Arc::new(());
    let (mut hubs, inboxes) = lane_matrix::<Arc<()>>(2, 8);
    let mut hub = hubs.remove(0);
    for round in 0..3u64 {
        let mut buf = hub.pool().take();
        for _ in 0..4 {
            buf.push(Envelope {
                from: ProcessId(0),
                to: ProcessId(1),
                sent_tick: round,
                due_tick: round + 1,
                msg: Arc::clone(&token),
            });
        }
        hub.send_batch(1, buf).expect("lane open");
    }
    assert_eq!(Arc::strong_count(&token), 13, "12 envelopes in flight");
    drop(inboxes); // the stop: consumers vanish with the lanes loaded
    drop(hubs);
    drop(hub);
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "in-flight envelopes dropped exactly once at teardown"
    );
}
