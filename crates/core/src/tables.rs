//! The supertopic table (`sTable` in the paper).
//!
//! Each process interested in `Ti` keeps a constant-size table of `z`
//! contacts belonging to a group *including* `Ti` — usually `super(Ti)`,
//! but possibly a higher ancestor when no direct superprocess exists
//! (Sec. V-A.1, footnote 4). The table records, per entry, which topic the
//! contact is interested in, so maintenance can tell whether the link can
//! still be tightened toward the direct supertopic.

use da_core::ProcessId;
use da_topics::TopicId;
use rand::Rng;

/// One supertable entry: a contact and the (ancestor) topic it is
/// interested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SuperEntry {
    /// The superprocess.
    pub pid: ProcessId,
    /// The topic the superprocess is interested in.
    pub topic: TopicId,
}

/// The constant-size supertopic table.
///
/// Invariants: no self-reference, no duplicate process ids, at most `z`
/// entries.
///
/// ```
/// use damulticast::{SuperEntry, SuperTable};
/// use da_core::{rng_from_seed, ProcessId};
/// use da_topics::TopicId;
///
/// let mut table = SuperTable::new(ProcessId(0), 2);
/// let mut rng = rng_from_seed(1);
/// table.insert(SuperEntry { pid: ProcessId(1), topic: TopicId::ROOT }, &mut rng);
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperTable {
    owner: ProcessId,
    capacity: usize,
    entries: Vec<SuperEntry>,
}

impl SuperTable {
    /// Creates an empty supertable of capacity `z` owned by `owner`.
    #[must_use]
    pub fn new(owner: ProcessId, z: usize) -> Self {
        SuperTable {
            owner,
            capacity: z,
            entries: Vec::with_capacity(z),
        }
    }

    /// The owning process.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// The capacity `z`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries as a slice.
    #[must_use]
    pub fn entries(&self) -> &[SuperEntry] {
        &self.entries
    }

    /// True when `pid` is listed.
    #[must_use]
    pub fn contains(&self, pid: ProcessId) -> bool {
        self.entries.iter().any(|e| e.pid == pid)
    }

    /// Inserts an entry, evicting a random resident when full. Rejects
    /// self-references and duplicate pids. Returns true when inserted.
    pub fn insert<R: Rng>(&mut self, entry: SuperEntry, rng: &mut R) -> bool {
        if entry.pid == self.owner || self.contains(entry.pid) || self.capacity == 0 {
            return false;
        }
        if self.entries.len() >= self.capacity {
            let victim = rng.gen_range(0..self.entries.len());
            self.entries.swap_remove(victim);
        }
        self.entries.push(entry);
        true
    }

    /// Removes the entry for `pid`, if present.
    pub fn remove(&mut self, pid: ProcessId) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.pid == pid) {
            self.entries.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// The paper's `MERGE` (footnote 5): keeps the "favorite" (still alive)
    /// entries and replaces failed ones with fresh contacts. `alive`
    /// decides which residents survive; `fresh` entries then fill the
    /// remaining capacity.
    ///
    /// Returns the number of fresh entries absorbed.
    pub fn merge<F>(&mut self, fresh: &[SuperEntry], mut alive: F) -> usize
    where
        F: FnMut(ProcessId) -> bool,
    {
        self.entries.retain(|e| alive(e.pid));
        let mut absorbed = 0;
        for &entry in fresh {
            if self.entries.len() >= self.capacity {
                break;
            }
            if entry.pid != self.owner && !self.contains(entry.pid) {
                self.entries.push(entry);
                absorbed += 1;
            }
        }
        absorbed
    }

    /// Prefers entries of topics *nearer* the owner's topic: when a fresh
    /// entry is interested in a strictly deeper (more specific) ancestor
    /// than a resident, the resident is replaced. Used when the bootstrap
    /// found only a distant ancestor first and a direct superprocess shows
    /// up later.
    ///
    /// `depth_of` maps a topic to its depth in the hierarchy.
    pub fn tighten<D>(&mut self, fresh: &[SuperEntry], depth_of: D)
    where
        D: Fn(TopicId) -> usize,
    {
        for &entry in fresh {
            if entry.pid == self.owner || self.contains(entry.pid) {
                continue;
            }
            if self.entries.len() < self.capacity {
                self.entries.push(entry);
                continue;
            }
            // Replace the shallowest (most distant) resident if the fresh
            // entry is strictly deeper.
            if let Some((idx, shallowest)) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| depth_of(e.topic))
            {
                if depth_of(entry.topic) > depth_of(shallowest.topic) {
                    self.entries[idx] = entry;
                }
            }
        }
    }

    /// Samples up to `k` distinct entries, one draw per entry kept.
    pub fn sample<R: Rng>(&self, k: usize, rng: &mut R) -> Vec<SuperEntry> {
        let mut pool = self.entries.clone();
        da_core::keep_random(&mut pool, k, rng);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::rng_from_seed;

    fn entry(pid: u32, topic: usize) -> SuperEntry {
        SuperEntry {
            pid: ProcessId(pid),
            topic: TopicId::from_index(topic),
        }
    }

    #[test]
    fn rejects_self_and_duplicates() {
        let mut rng = rng_from_seed(1);
        let mut t = SuperTable::new(ProcessId(0), 3);
        assert!(!t.insert(entry(0, 0), &mut rng), "self rejected");
        assert!(t.insert(entry(1, 0), &mut rng));
        assert!(!t.insert(entry(1, 0), &mut rng), "duplicate rejected");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn capacity_enforced_with_eviction() {
        let mut rng = rng_from_seed(2);
        let mut t = SuperTable::new(ProcessId(0), 2);
        for i in 1..=5 {
            t.insert(entry(i, 0), &mut rng);
            assert!(t.len() <= 2);
        }
        assert!(t.contains(ProcessId(5)), "newest always resident");
    }

    #[test]
    fn merge_keeps_alive_and_fills_with_fresh() {
        let mut rng = rng_from_seed(3);
        let mut t = SuperTable::new(ProcessId(0), 3);
        t.insert(entry(1, 0), &mut rng);
        t.insert(entry(2, 0), &mut rng);
        t.insert(entry(3, 0), &mut rng);
        // 2 is dead; fresh contacts 4, 5 offered.
        let absorbed = t.merge(&[entry(4, 0), entry(5, 0)], |p| p != ProcessId(2));
        assert_eq!(absorbed, 1, "one slot was freed");
        assert!(t.contains(ProcessId(1)));
        assert!(t.contains(ProcessId(3)));
        assert!(t.contains(ProcessId(4)));
        assert!(!t.contains(ProcessId(2)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn merge_skips_duplicates_and_self() {
        let mut rng = rng_from_seed(4);
        let mut t = SuperTable::new(ProcessId(0), 4);
        t.insert(entry(1, 0), &mut rng);
        let absorbed = t.merge(&[entry(1, 0), entry(0, 0), entry(2, 0)], |_| true);
        assert_eq!(absorbed, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn tighten_prefers_deeper_topics() {
        let mut rng = rng_from_seed(5);
        let mut t = SuperTable::new(ProcessId(0), 2);
        // Entries at the root (depth 0) — the distant fallback.
        t.insert(entry(1, 0), &mut rng);
        t.insert(entry(2, 0), &mut rng);
        // A direct superprocess at depth 1 appears.
        t.tighten(&[entry(3, 1)], |topic| topic.index());
        assert!(t.contains(ProcessId(3)));
        assert_eq!(t.len(), 2);
        // A shallower candidate does not displace a deeper resident.
        t.tighten(&[entry(4, 0)], |topic| topic.index());
        assert!(!t.contains(ProcessId(4)));
    }

    #[test]
    fn sample_distinct() {
        let mut rng = rng_from_seed(7);
        let mut t = SuperTable::new(ProcessId(0), 5);
        for i in 1..=5 {
            t.insert(entry(i, 0), &mut rng);
        }
        let s = t.sample(3, &mut rng);
        assert_eq!(s.len(), 3);
        let mut pids: Vec<_> = s.iter().map(|e| e.pid).collect();
        pids.sort();
        pids.dedup();
        assert_eq!(pids.len(), 3);
    }

    #[test]
    fn remove_entries() {
        let mut rng = rng_from_seed(8);
        let mut t = SuperTable::new(ProcessId(0), 3);
        t.insert(entry(1, 0), &mut rng);
        assert!(t.remove(ProcessId(1)));
        assert!(!t.remove(ProcessId(1)));
        assert!(t.is_empty());
    }
}
