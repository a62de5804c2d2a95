use da_core::ProcessId;
use rand::Rng;

/// A bounded partial view of a process group.
///
/// Invariants, maintained by construction and asserted in tests:
///
/// * never contains the owner (a process does not list itself),
/// * never contains duplicates,
/// * never exceeds its capacity.
///
/// When a new entry arrives while the view is full, a uniformly random
/// resident entry is evicted — the randomised replacement of the underlying
/// membership algorithm which keeps views unbiased.
///
/// Each entry can carry a liveness stamp — the round it was last heard
/// from ([`PartialView::mark_heard`]) — which leaves the view with it.
/// The stamps are allocated on the first `mark_heard` that hits a
/// resident, so a view nobody stamps pays one null pointer for them.
///
/// ```
/// use da_membership::PartialView;
/// use da_core::{rng_from_seed, ProcessId};
///
/// let mut view = PartialView::new(ProcessId(0), 2);
/// let mut rng = rng_from_seed(1);
/// view.insert(ProcessId(1), &mut rng);
/// view.insert(ProcessId(0), &mut rng); // self: ignored
/// view.insert(ProcessId(1), &mut rng); // duplicate: ignored
/// assert_eq!(view.len(), 1);
/// ```
#[derive(Clone)]
pub struct PartialView {
    owner: ProcessId,
    /// Entries in `slots`: the first `len` are the view, in order.
    len: u32,
    /// Room for the view's capacity, allocated whole at construction:
    /// the capacity is `slots.len()`.
    slots: Box<[ProcessId]>,
    /// `heard[i]` is the round `slots[i]` was last heard from, or
    /// [`NEVER_HEARD`]. `None` until the first stamp; from then on the
    /// entries are stamped while it is non-empty, parallel to them.
    /// Boxed on purpose: 8 B inline where a `Vec` takes 24, since only
    /// dynamic mode ever stamps.
    #[allow(clippy::box_collection)]
    heard: Option<Box<Vec<u64>>>,
}

// Every wave process holds one in its send-side cache line.
const _: () = assert!(std::mem::size_of::<PartialView>() == 32);

/// Stamp of an entry no [`PartialView::mark_heard`] has named.
const NEVER_HEARD: u64 = u64::MAX;

impl PartialEq for PartialView {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner
            && self.capacity() == other.capacity()
            && self.as_slice() == other.as_slice()
            && self.stamps() == other.stamps()
    }
}

impl Eq for PartialView {}

impl std::fmt::Debug for PartialView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartialView")
            .field("owner", &self.owner)
            .field("capacity", &self.capacity())
            .field("entries", &self.as_slice())
            .field("heard", &self.stamps())
            .finish()
    }
}

impl PartialView {
    /// Creates an empty view owned by `owner` with the given capacity.
    ///
    /// # Panics
    ///
    /// When `capacity` exceeds `u32::MAX`: the view counts its entries
    /// in a `u32`.
    #[must_use]
    pub fn new(owner: ProcessId, capacity: usize) -> Self {
        assert!(
            u32::try_from(capacity).is_ok(),
            "a view of {capacity} entries: its count is a u32"
        );
        PartialView {
            owner,
            len: 0,
            slots: vec![ProcessId(0); capacity].into_boxed_slice(),
            heard: None,
        }
    }

    /// A view of `capacity` holding `entries` in their order, less the
    /// owner and repeated pids: a table drawn elsewhere, kept as given
    /// with no draw.
    ///
    /// # Panics
    ///
    /// When more than `capacity` entries remain: keeping some of them
    /// would take a draw.
    ///
    /// ```
    /// use da_membership::PartialView;
    /// use da_core::ProcessId;
    ///
    /// let drawn = [3, 0, 5, 3, 1].map(ProcessId);
    /// let view = PartialView::from_entries(ProcessId(0), 4, &drawn);
    /// assert_eq!(view.as_slice(), [3, 5, 1].map(ProcessId));
    /// ```
    #[must_use]
    pub fn from_entries(owner: ProcessId, capacity: usize, entries: &[ProcessId]) -> Self {
        let mut view = PartialView::new(owner, capacity);
        for &pid in entries {
            if pid != owner && !view.contains(pid) {
                assert!(
                    view.len() < capacity,
                    "more than {capacity} entries for a view of {capacity}"
                );
                view.push(pid);
            }
        }
        view
    }

    /// The process owning this view.
    #[must_use]
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the view holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most entries the view holds.
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True when `pid` is in the view.
    #[must_use]
    pub fn contains(&self, pid: ProcessId) -> bool {
        self.as_slice().contains(&pid)
    }

    /// The entries as a slice, in insertion order.
    #[must_use]
    pub fn as_slice(&self) -> &[ProcessId] {
        &self.slots[..self.len()]
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.as_slice().iter().copied()
    }

    /// The entries' stamps, parallel to them; empty while none is
    /// stamped.
    fn stamps(&self) -> &[u64] {
        self.heard.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The stamps when the entries carry them.
    fn stamps_mut(&mut self) -> Option<&mut Vec<u64>> {
        self.heard.as_deref_mut().filter(|heard| !heard.is_empty())
    }

    /// Appends `pid`, which must fit and be new.
    fn push(&mut self, pid: ProcessId) {
        self.slots[self.len()] = pid;
        self.len += 1;
        if let Some(heard) = self.stamps_mut() {
            heard.push(NEVER_HEARD);
        }
    }

    /// Inserts `pid`, evicting a random resident if full. Self-references
    /// and duplicates are silently ignored. Returns true if `pid` is in the
    /// view afterwards and was not before.
    pub fn insert<R: Rng>(&mut self, pid: ProcessId, rng: &mut R) -> bool {
        if pid == self.owner || self.contains(pid) || self.capacity() == 0 {
            return false;
        }
        if self.len() >= self.capacity() {
            let victim = rng.gen_range(0..self.len());
            self.swap_remove(victim);
        }
        self.push(pid);
        true
    }

    /// Removes `pid` if present; returns whether it was present.
    pub fn remove(&mut self, pid: ProcessId) -> bool {
        if let Some(pos) = self.position(pid) {
            self.swap_remove(pos);
            true
        } else {
            false
        }
    }

    fn position(&self, pid: ProcessId) -> Option<usize> {
        self.as_slice().iter().position(|&e| e == pid)
    }

    fn swap_remove(&mut self, pos: usize) {
        self.len -= 1;
        self.slots[pos] = self.slots[self.len()];
        if let Some(heard) = self.stamps_mut() {
            heard.swap_remove(pos);
        }
    }

    /// Retains only entries satisfying the predicate, in order.
    pub fn retain<F: FnMut(ProcessId) -> bool>(&mut self, mut keep: F) {
        self.retain_stamped(|pid, _| keep(pid));
    }

    /// Retains only entries whose id and liveness stamp
    /// ([`NEVER_HEARD`] included) satisfy the predicate, in order.
    fn retain_stamped<F: FnMut(ProcessId, u64) -> bool>(&mut self, mut keep: F) {
        let len = self.len();
        let mut heard = self.heard.as_deref_mut().filter(|heard| !heard.is_empty());
        let mut kept = 0;
        for at in 0..len {
            let stamp = heard.as_ref().map_or(NEVER_HEARD, |heard| heard[at]);
            if keep(self.slots[at], stamp) {
                self.slots[kept] = self.slots[at];
                if let Some(heard) = heard.as_mut() {
                    heard[kept] = stamp;
                }
                kept += 1;
            }
        }
        self.len = kept as u32;
        if let Some(heard) = heard {
            heard.truncate(kept);
        }
    }

    /// Records that `pid` was heard from at `round`; a `pid` outside the
    /// view is not tracked (its stamp would describe nothing).
    pub fn mark_heard(&mut self, pid: ProcessId, round: u64) {
        let Some(pos) = self.position(pid) else {
            return;
        };
        let (len, capacity) = (self.len(), self.capacity());
        let heard = self
            .heard
            .get_or_insert_with(|| Box::new(Vec::with_capacity(capacity)));
        if heard.is_empty() {
            heard.resize(len, NEVER_HEARD);
        }
        heard[pos] = round;
    }

    /// The round `pid` was last heard from; `None` for an entry never
    /// heard from since it entered the view, and for a non-member.
    #[must_use]
    pub fn last_heard(&self, pid: ProcessId) -> Option<u64> {
        let stamp = *self.stamps().get(self.position(pid)?)?;
        (stamp != NEVER_HEARD).then_some(stamp)
    }

    /// Evicts entries last heard from more than `age` rounds before
    /// `round`. Entries never heard from are exempt.
    pub fn evict_stale(&mut self, round: u64, age: u64) {
        if !self.stamps().is_empty() {
            self.retain_stamped(|_, heard| {
                heard == NEVER_HEARD || round.saturating_sub(heard) <= age
            });
        }
    }

    /// Merges the entries of `incoming` into the view (random eviction
    /// when full). Returns the number of new entries absorbed.
    pub fn merge<R: Rng>(&mut self, incoming: &[ProcessId], rng: &mut R) -> usize {
        incoming
            .iter()
            .filter(|&&pid| self.insert(pid, rng))
            .count()
    }

    /// Samples up to `k` distinct entries uniformly at random, one draw
    /// per entry kept.
    pub fn sample<R: Rng>(&self, k: usize, rng: &mut R) -> Vec<ProcessId> {
        let mut pool = self.as_slice().to_vec();
        da_core::keep_random(&mut pool, k, rng);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::rng_from_seed;

    #[test]
    fn rejects_self_and_duplicates() {
        let mut rng = rng_from_seed(0);
        let mut v = PartialView::new(ProcessId(0), 5);
        assert!(!v.insert(ProcessId(0), &mut rng));
        assert!(v.insert(ProcessId(1), &mut rng));
        assert!(!v.insert(ProcessId(1), &mut rng));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn eviction_preserves_capacity() {
        let mut rng = rng_from_seed(1);
        let mut v = PartialView::new(ProcessId(0), 3);
        for i in 1..=10u32 {
            v.insert(ProcessId(i), &mut rng);
            assert!(v.len() <= 3);
        }
        assert_eq!(v.len(), 3);
        // The newest entry always survives its own insertion.
        assert!(v.contains(ProcessId(10)));
    }

    #[test]
    fn zero_capacity_accepts_nothing() {
        let mut rng = rng_from_seed(2);
        let mut v = PartialView::new(ProcessId(0), 0);
        assert!(!v.insert(ProcessId(1), &mut rng));
        assert!(v.is_empty());
    }

    #[test]
    fn remove_and_retain() {
        let mut rng = rng_from_seed(3);
        let mut v = PartialView::new(ProcessId(0), 10);
        for i in 1..=5u32 {
            v.insert(ProcessId(i), &mut rng);
        }
        assert!(v.remove(ProcessId(3)));
        assert!(!v.remove(ProcessId(3)));
        v.retain(|p| p.0 % 2 == 0);
        assert!(v.iter().all(|p| p.0 % 2 == 0));
    }

    #[test]
    fn merge_counts_new_entries() {
        let mut rng = rng_from_seed(4);
        let mut v = PartialView::new(ProcessId(0), 10);
        v.insert(ProcessId(1), &mut rng);
        let absorbed = v.merge(
            &[ProcessId(1), ProcessId(2), ProcessId(0), ProcessId(3)],
            &mut rng,
        );
        assert_eq!(absorbed, 2); // 1 is duplicate, 0 is self
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let mut rng = rng_from_seed(5);
        let mut v = PartialView::new(ProcessId(0), 10);
        for i in 1..=8u32 {
            v.insert(ProcessId(i), &mut rng);
        }
        let s = v.sample(5, &mut rng);
        assert_eq!(s.len(), 5);
        let mut sorted = s.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert_eq!(v.sample(100, &mut rng).len(), 8);
    }
}
