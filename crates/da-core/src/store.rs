//! Flat process storage with lazily-derived RNG streams, shared by both
//! execution substrates.
//!
//! [`ProcessStore`] is a dense, cache-friendly slab (local index →
//! process) beside one 4-byte stream slot per process and a dense slab
//! of the streams that exist: [`rng_for_process`] is a pure function of
//! `(master seed, pid)`, so the stream of a process that has never drawn
//! does not need to exist. A stream materialises on the first *draw* —
//! the tick body hands a hook the process and its slot, and the hook's
//! `Exec::rng` seeds it — and then persists, so stream *positions* are
//! preserved exactly: the k-th draw of a process is identical whether
//! its neighbours ever drew or not, and identical to an eagerly seeded
//! layout's. A population that never draws (a relay, the metropolis
//! flood) keeps 4 bytes of empty slot per process and no stream at all;
//! at million-process scale an eager layout would be 32 MB of generator
//! state and a full pass of seed derivation before the first tick.

use crate::process::ProcessId;
use crate::seed::rng_for_process;
use rand::rngs::SmallRng;
use std::num::NonZeroU32;

/// Where a process's stream lives: `None` until it first draws, then
/// its index in [`Streams`] plus one.
pub(crate) type Slot = Option<NonZeroU32>;
const _: () = assert!(std::mem::size_of::<Slot>() == 4);

/// The streams that exist, in the order they were first drawn from,
/// and the master seed a new one derives from.
#[derive(Debug, Clone)]
pub(crate) struct Streams {
    seed: u64,
    rngs: Vec<SmallRng>,
}

impl Streams {
    /// The stream of `pid`, whose slot is `slot`, seeded on first use —
    /// the one place a stream is seeded.
    #[inline]
    pub(crate) fn get(&mut self, slot: &mut Slot, pid: ProcessId) -> &mut SmallRng {
        let index = slot.get_or_insert_with(|| {
            self.rngs.push(rng_for_process(self.seed, pid));
            // One stream per pid at most, so only the 2^32nd wraps (to 0).
            NonZeroU32::new(self.rngs.len() as u32).expect("a stream per pid")
        });
        &mut self.rngs[index.get() as usize - 1]
    }
}

/// A dense slab of process states plus lazily-materialised per-process
/// RNG streams, indexed by a substrate-local dense index.
///
/// The caller owns the local-index → [`ProcessId`] mapping (the
/// simulator's is the identity; a live worker stripe's is
/// `pid = worker + local × stride`), so accessors that may materialise
/// an RNG take the pid alongside the local index.
///
/// ```
/// use da_core::store::ProcessStore;
/// use da_core::{rng_for_process, ProcessId};
/// use rand::Rng as _;
///
/// let mut store: ProcessStore<u32> = ProcessStore::new(42);
/// store.push(7);
/// assert_eq!(store.rng_resident(), 0, "nothing materialised at spawn");
/// let lazy: u64 = store.rng(0, ProcessId(0)).gen();
/// let mut eager = rng_for_process(42, ProcessId(0));
/// assert_eq!(lazy, eager.gen::<u64>(), "same stream as the eager layout");
/// assert_eq!(store.rng_resident(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProcessStore<P> {
    procs: Vec<P>,
    slots: Vec<Slot>,
    streams: Streams,
}

impl<P> ProcessStore<P> {
    /// An empty store whose RNG streams derive from `master_seed` (the
    /// run's master seed — the same one [`rng_for_process`] takes).
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self::from_vec(master_seed, Vec::new())
    }

    /// An empty store with room for `capacity` processes.
    #[must_use]
    pub fn with_capacity(master_seed: u64, capacity: usize) -> Self {
        Self::from_vec(master_seed, Vec::with_capacity(capacity))
    }

    /// A store over `procs` (local index `i` holds `procs[i]`), adopting
    /// the vector's allocation; every RNG slot starts empty.
    #[must_use]
    pub fn from_vec(master_seed: u64, procs: Vec<P>) -> Self {
        ProcessStore {
            slots: vec![None; procs.len()],
            procs,
            streams: Streams {
                seed: master_seed,
                rngs: Vec::new(),
            },
        }
    }

    /// Appends a process; its RNG slot starts empty.
    pub fn push(&mut self, process: P) {
        self.procs.push(process);
        self.slots.push(None);
    }

    /// Number of processes stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when the store holds no processes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The process at `local`.
    #[must_use]
    pub fn get(&self, local: usize) -> &P {
        &self.procs[local]
    }

    /// The process at `local`, mutably.
    pub fn get_mut(&mut self, local: usize) -> &mut P {
        &mut self.procs[local]
    }

    /// Iterates the process states in local-index order.
    pub fn iter(&self) -> std::slice::Iter<'_, P> {
        self.procs.iter()
    }

    /// The RNG stream of the process at `local` (which must be the
    /// local slot of `pid`), materialising it on first use.
    pub fn rng(&mut self, local: usize, pid: ProcessId) -> &mut SmallRng {
        self.streams.get(&mut self.slots[local], pid)
    }

    /// Split borrow for the protocol hooks: the process slab, the RNG
    /// slots beside it as they are — each empty until its process first
    /// draws — and the streams to seed them in. The tick body's context
    /// materialises a stream when a hook asks for it, so a hook that
    /// never draws touches nothing of the streams.
    pub(crate) fn hook_slices(&mut self) -> (&mut [P], &mut [Slot], &mut Streams) {
        (&mut self.procs, &mut self.slots, &mut self.streams)
    }

    /// The process at `local` and its RNG stream, materialised, in one
    /// call. The tick body does not call this: its hooks materialise on
    /// the first draw. It stays for a caller that wants both halves
    /// eagerly; the benchmark's `store.pair_mut_ns` probe times it.
    pub fn pair_mut(&mut self, local: usize, pid: ProcessId) -> (&mut P, &mut SmallRng) {
        let rng = self.streams.get(&mut self.slots[local], pid);
        (&mut self.procs[local], rng)
    }

    /// A clone of the process's RNG stream *at its current position*,
    /// without materialising it: a stream that never drew is
    /// indistinguishable from one never materialised, so state digests
    /// probing streams through this are invariant to which ones happen
    /// to be resident.
    #[must_use]
    pub fn probe_rng(&self, local: usize, pid: ProcessId) -> SmallRng {
        match self.slots[local] {
            Some(index) => self.streams.rngs[index.get() as usize - 1].clone(),
            None => rng_for_process(self.streams.seed, pid),
        }
    }

    /// Number of RNG streams materialised so far — the store's resident
    /// generator state is 32 bytes times this, not times [`len`](Self::len).
    #[must_use]
    pub fn rng_resident(&self) -> usize {
        self.streams.rngs.len()
    }

    /// Consumes the store, returning the process slab.
    #[must_use]
    pub fn into_processes(self) -> Vec<P> {
        self.procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn lazy_rng_matches_eager_derivation() {
        let mut store: ProcessStore<u8> = ProcessStore::new(9);
        for i in 0..4 {
            store.push(i);
        }
        // Touch streams out of order; each must replay its eager twin.
        for local in [2usize, 0, 3, 1] {
            let pid = ProcessId::from_index(local);
            let mut eager = rng_for_process(9, pid);
            let eager_draws: Vec<u64> = (0..4).map(|_| eager.gen()).collect();
            let lazy_draws: Vec<u64> = (0..4).map(|_| store.rng(local, pid).gen()).collect();
            assert_eq!(lazy_draws, eager_draws, "local {local}");
        }
        assert_eq!(store.rng_resident(), 4);
    }

    #[test]
    fn rng_position_persists_across_calls() {
        let mut store: ProcessStore<u8> = ProcessStore::new(3);
        store.push(0);
        let first: u64 = store.rng(0, ProcessId(0)).gen();
        let second: u64 = store.rng(0, ProcessId(0)).gen();
        assert_ne!(first, second, "stream advances, not restarts");
    }

    #[test]
    fn probe_is_materialisation_invariant() {
        let mut touched: ProcessStore<u8> = ProcessStore::new(5);
        let untouched: ProcessStore<u8> = {
            let mut s = ProcessStore::new(5);
            s.push(0);
            s
        };
        touched.push(0);
        // Materialise without drawing: position is still the stream head.
        let _ = touched.rng(0, ProcessId(0));
        assert_eq!(touched.rng_resident(), 1);
        assert_eq!(untouched.rng_resident(), 0);
        let mut a = touched.probe_rng(0, ProcessId(0));
        let mut b = untouched.probe_rng(0, ProcessId(0));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn pair_mut_splits_the_borrow() {
        let mut store: ProcessStore<Vec<u64>> = ProcessStore::new(1);
        store.push(Vec::new());
        let (proc_state, rng) = store.pair_mut(0, ProcessId(0));
        proc_state.push(rng.gen());
        assert_eq!(store.get(0).len(), 1);
    }

    #[test]
    fn clone_preserves_positions_and_residency() {
        let mut store: ProcessStore<u8> = ProcessStore::new(7);
        store.push(0);
        store.push(1);
        let _: u64 = store.rng(0, ProcessId(0)).gen();
        let mut fork = store.clone();
        assert_eq!(fork.rng_resident(), 1);
        assert_eq!(
            fork.rng(0, ProcessId(0)).gen::<u64>(),
            store.rng(0, ProcessId(0)).gen::<u64>(),
            "forked universes draw in lockstep"
        );
    }

    #[test]
    fn into_processes_returns_the_slab() {
        let mut store: ProcessStore<u8> = ProcessStore::new(0);
        store.push(4);
        store.push(5);
        assert_eq!(store.into_processes(), vec![4, 5]);
    }
}
