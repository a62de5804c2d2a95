//! A counting global allocator: heap bytes live, allocations made and
//! bytes requested, readable at any point of the run.
//!
//! `bytes_per_process` comes from here rather than from RSS because the
//! count is exact and repeats run to run, and the drive-window deltas
//! (`driver.allocs_per_op`, `driver.alloc_bytes_per_delivery`) observe
//! the data plane's zero-steady-state-allocation property end to end.
//!
//! Counters are sharded per thread onto separate cache lines, so two
//! runtime workers allocating at once never bounce a line between
//! cores — the instrument must not add the contention it would then
//! measure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    allocated: AtomicU64,
    freed: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // only used to seed the static array
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    allocated: AtomicU64::new(0),
    freed: AtomicU64::new(0),
};

static TABLE: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a
    // torn-down slot.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let idx = MY_SHARD
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                // Statistics only: no other data is published through it.
                slot.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            slot.get()
        })
        .unwrap_or(0);
    &TABLE[idx]
}

/// The allocator the benchmark binary installs: `System` plus counters.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged and returns its result unchanged; the counters
// are relaxed atomics that never influence the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.allocated
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.allocated
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shard()
            .freed
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with this layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.allocated.fetch_add(new_size as u64, Ordering::Relaxed);
        s.freed.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the allocator's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocation calls so far (`realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested so far.
    pub allocated: u64,
    /// Bytes currently live on the heap.
    pub live: u64,
}

/// Sums the shards. Exact whenever no other thread is allocating (the
/// benchmark reads it between driver calls, with the pool idle).
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    let mut freed = 0u64;
    for s in &TABLE {
        out.allocs += s.allocs.load(Ordering::Relaxed);
        out.allocated += s.allocated.load(Ordering::Relaxed);
        freed += s.freed.load(Ordering::Relaxed);
    }
    out.live = out.allocated.saturating_sub(freed);
    out
}
