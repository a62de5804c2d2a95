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

/// The constant-size supertopic table: a list of contacts in including
/// groups, no two with the same pid.
///
/// The table holds its entries and nothing else. Its bound `z` is a
/// parameter of the owner's group, so the callers that grow a table pass
/// it in. A table is built in one of two ways: static mode keeps the list
/// the network builder drew ([`SuperTable::from_entries`]), and dynamic
/// mode absorbs every fresh contact through [`SuperTable::tighten`]. The
/// owner never appears: every path that adds an entry keeps only
/// contacts of a strictly including topic, and a process holds one
/// topic. Only [`SuperTable::sample`] draws.
///
/// ```
/// use damulticast::{SuperEntry, SuperTable};
/// use da_core::ProcessId;
/// use da_topics::TopicId;
///
/// let z = 2;
/// let mut table = SuperTable::with_capacity(z);
/// let root = |pid| SuperEntry { pid: ProcessId(pid), topic: TopicId::ROOT };
/// table.tighten(&[root(1), root(2), root(3)], z, TopicId::index);
/// assert_eq!(table.entries(), [root(1), root(2)], "full: an equal depth stays out");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperTable(Vec<SuperEntry>);

impl SuperTable {
    /// An empty table with room for `z` entries.
    #[must_use]
    pub fn with_capacity(z: usize) -> Self {
        SuperTable(Vec::with_capacity(z))
    }

    /// The table of `entries` as drawn, less any repeated pid (the first
    /// stays).
    #[must_use]
    pub fn from_entries(mut entries: Vec<SuperEntry>) -> Self {
        let mut kept = 0;
        for at in 0..entries.len() {
            let entry = entries[at];
            if !entries[..kept].iter().any(|e| e.pid == entry.pid) {
                entries[kept] = entry;
                kept += 1;
            }
        }
        entries.truncate(kept);
        SuperTable(entries)
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The entries as a slice.
    #[must_use]
    pub fn entries(&self) -> &[SuperEntry] {
        &self.0
    }

    /// True when `pid` is listed.
    #[must_use]
    pub fn contains(&self, pid: ProcessId) -> bool {
        self.0.iter().any(|e| e.pid == pid)
    }

    /// Removes the entry for `pid`, if present.
    pub fn remove(&mut self, pid: ProcessId) -> bool {
        if let Some(pos) = self.0.iter().position(|e| e.pid == pid) {
            self.0.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Absorbs `fresh` contacts, the paper's `MERGE` (footnote 5) for a
    /// table whose residents are all alive. Each new pid fills free room
    /// up to `z`; once the table is full, it replaces the shallowest
    /// resident if its topic is strictly deeper, that is nearer the
    /// owner's. So a table that the bootstrap filled from a distant
    /// ancestor tightens toward the direct supertopic when its contacts
    /// show up. No draw.
    ///
    /// `depth_of` maps a topic to its depth in the hierarchy.
    pub fn tighten<D>(&mut self, fresh: &[SuperEntry], z: usize, depth_of: D)
    where
        D: Fn(TopicId) -> usize,
    {
        for &entry in fresh {
            if self.contains(entry.pid) {
                continue;
            }
            if self.0.len() < z {
                self.0.push(entry);
                continue;
            }
            // Replace the shallowest (most distant) resident if the fresh
            // entry is strictly deeper.
            if let Some((idx, shallowest)) = self
                .0
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| depth_of(e.topic))
            {
                if depth_of(entry.topic) > depth_of(shallowest.topic) {
                    self.0[idx] = entry;
                }
            }
        }
    }

    /// Samples up to `k` distinct entries, one draw per entry kept.
    pub fn sample<R: Rng>(&self, k: usize, rng: &mut R) -> Vec<SuperEntry> {
        let mut pool = self.0.clone();
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

    /// No path into a table lists a pid twice: `tighten` skips a listed
    /// pid, and a drawn list keeps its first.
    #[test]
    fn rejects_duplicates() {
        let mut t = SuperTable::with_capacity(3);
        t.tighten(&[entry(1, 0), entry(1, 0), entry(2, 0)], 3, |t| t.index());
        t.tighten(&[entry(1, 0), entry(2, 1)], 3, |t| t.index());
        assert_eq!(t.entries(), [entry(1, 0), entry(2, 0)]);
        let drawn = SuperTable::from_entries(vec![entry(2, 0), entry(1, 0), entry(2, 1)]);
        assert_eq!(drawn.entries(), [entry(2, 0), entry(1, 0)], "first kept");
    }

    /// A table never holds more than `z`: once full, it refuses a contact
    /// of a resident's depth, and a strictly deeper one evicts the
    /// shallowest resident.
    #[test]
    fn capacity_enforced_with_eviction() {
        let mut t = SuperTable::with_capacity(2);
        for i in 1..=5 {
            t.tighten(&[entry(i, 1)], 2, |t| t.index());
            assert!(t.len() <= 2);
        }
        assert_eq!(
            t.entries(),
            [entry(1, 1), entry(2, 1)],
            "equal depth refused"
        );
        t.tighten(&[entry(6, 0), entry(7, 2)], 2, |t| t.index());
        assert_eq!(t.entries(), [entry(7, 2), entry(2, 1)], "deeper evicts");
    }

    /// The paper's MERGE as the maintenance task runs it: the dead
    /// resident is removed, then `tighten` fills the freed slot.
    #[test]
    fn merge_keeps_alive_and_fills_with_fresh() {
        let mut t = SuperTable::from_entries(vec![entry(1, 0), entry(2, 0), entry(3, 0)]);
        // 2 is dead; fresh contacts 4, 5 offered.
        assert!(t.remove(ProcessId(2)));
        t.tighten(&[entry(4, 0), entry(5, 0)], 3, |t| t.index());
        assert!(t.contains(ProcessId(1)));
        assert!(t.contains(ProcessId(3)));
        assert!(t.contains(ProcessId(4)));
        assert!(!t.contains(ProcessId(2)));
        assert!(!t.contains(ProcessId(5)), "one slot was freed");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn tighten_prefers_deeper_topics() {
        // Entries at the root (depth 0) — the distant fallback.
        let mut t = SuperTable::from_entries(vec![entry(1, 0), entry(2, 0)]);
        // A direct superprocess at depth 1 appears.
        t.tighten(&[entry(3, 1)], 2, |topic| topic.index());
        assert!(t.contains(ProcessId(3)));
        assert_eq!(t.len(), 2);
        // A shallower candidate does not displace a deeper resident.
        t.tighten(&[entry(4, 0)], 2, |topic| topic.index());
        assert!(!t.contains(ProcessId(4)));
    }

    #[test]
    fn sample_distinct() {
        let mut rng = rng_from_seed(7);
        let t = SuperTable::from_entries((1..=5).map(|i| entry(i, 0)).collect());
        let s = t.sample(3, &mut rng);
        assert_eq!(s.len(), 3);
        let mut pids: Vec<_> = s.iter().map(|e| e.pid).collect();
        pids.sort();
        pids.dedup();
        assert_eq!(pids.len(), 3);
    }

    #[test]
    fn remove_entries() {
        let mut t = SuperTable::from_entries(vec![entry(1, 0)]);
        assert!(t.remove(ProcessId(1)));
        assert!(!t.remove(ProcessId(1)));
        assert!(t.is_empty());
    }
}
