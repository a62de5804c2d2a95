//! The simulator twin of `da-runtime`'s `tests/data_plane.rs`: once the
//! delay wheel's buckets and the engine's reused buffers are warm, a
//! round never touches the allocator — the deterministic guard that a
//! ring, not a growing and sifting heap, is in the hot path.

use da_simnet::{Engine, Exec, ExecProtocol, ProcessId, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting the calling thread's
/// allocations (growth included: the default `realloc` calls `alloc`).
/// Hosted here because the library is `forbid(unsafe_code)`.
struct CountingAllocator;

thread_local! {
    /// Per-thread, so the harness's own threads stay out of the count.
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
        // SAFETY: forwarded unchanged; `ptr` came from `System.alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `da_core::testkit::Relay` without its receipt log, which grows (and
/// so allocates) for as long as the ring sends: every round each
/// process sends a token to its successor.
struct Relay {
    population: u32,
}

impl ExecProtocol for Relay {
    type Msg = ();

    fn on_message<X: Exec<Msg = ()>>(&mut self, _from: ProcessId, _msg: (), _ctx: &mut X) {}

    fn on_round<X: Exec<Msg = ()>>(&mut self, _round: u64, ctx: &mut X) {
        ctx.send(ProcessId((ctx.me().0 + 1) % self.population), ());
    }
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let population = 64;
    let relays = (0..population).map(|_| Relay { population }).collect();
    let mut engine = Engine::new(SimConfig::default().with_seed(7), relays);

    // Warm-up: both ring buckets and the outbox reach their final size.
    engine.run_rounds(100);

    let before = ALLOCATIONS.get();
    for _ in 0..1000 {
        assert_eq!(engine.step_round().delivered, u64::from(population));
    }
    assert_eq!(ALLOCATIONS.get() - before, 0, "1000 steady-state rounds");
}
