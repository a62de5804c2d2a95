//! Two-level process layout for the paper's baseline (c).
//!
//! "Hierarchical gossip-based broadcast" (Sec. VI-E, technique of \[10\])
//! splits the system into `N` small groups *independent of interests*.
//! Each process keeps two views: one over its own group (intra) and one
//! over the rest of the system (inter); an event is gossiped within the
//! group with fanout `ln(m) + c1` and across groups with fanout
//! `ln(N) + c2`.

use crate::static_init::sample_others;
use crate::{kmg_view_size, MembershipError};
use da_core::ProcessId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Partition of a population into `N` interest-oblivious groups.
#[derive(Debug, Clone)]
pub struct HierarchicalLayout {
    groups: Vec<Vec<ProcessId>>,
}

impl HierarchicalLayout {
    /// Partitions `population` processes into `group_count` groups of
    /// near-equal size, shuffled by `rng` so grouping carries no id bias.
    ///
    /// # Errors
    ///
    /// Returns [`MembershipError::InvalidParameter`] when `group_count`
    /// is zero or exceeds the population.
    pub fn partition<R: Rng>(
        population: usize,
        group_count: usize,
        rng: &mut R,
    ) -> Result<Self, MembershipError> {
        if group_count == 0 {
            return Err(MembershipError::InvalidParameter {
                reason: "group_count must be positive".to_owned(),
            });
        }
        if group_count > population {
            return Err(MembershipError::InvalidParameter {
                reason: format!("group_count {group_count} exceeds population {population}"),
            });
        }
        let mut ids: Vec<ProcessId> = (0..population).map(ProcessId::from_index).collect();
        ids.shuffle(rng);
        let mut groups: Vec<Vec<ProcessId>> = vec![Vec::new(); group_count];
        for (i, pid) in ids.into_iter().enumerate() {
            groups[i % group_count].push(pid);
        }
        Ok(HierarchicalLayout { groups })
    }

    /// Number of groups (`N` in the paper).
    fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Typical group size (`m` in the paper): the size of group 0.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.groups.first().map_or(0, Vec::len)
    }
}

/// Static intra- and inter-group views for every process of a layout,
/// indexed by process id: the layout's population is `0..n`.
#[derive(Debug, Clone)]
pub struct HierarchicalTables {
    /// Per-process view over the own group.
    pub intra: Vec<Vec<ProcessId>>,
    /// Per-process view over foreign groups.
    pub inter: Vec<Vec<ProcessId>>,
}

/// Draws static two-level views for every process. The intra view samples
/// `(b+1)·ln(m)` members of the own group; the inter view samples
/// `(b+1)·ln(N)` processes *outside* it. Each view of `k` entries costs
/// `k` draws.
///
/// # Errors
///
/// Returns [`MembershipError::EmptyGroup`] when the layout has no members.
pub fn static_hierarchical_tables<R: Rng>(
    layout: &HierarchicalLayout,
    b: f64,
    rng: &mut R,
) -> Result<HierarchicalTables, MembershipError> {
    // The groups lie back to back, so a group's foreigners are the
    // population before it and after it.
    let everyone = layout.groups.concat();
    if everyone.is_empty() {
        return Err(MembershipError::EmptyGroup {
            context: "static_hierarchical_tables",
        });
    }
    let inter_size = kmg_view_size(b, layout.group_count());
    let mut intra = vec![Vec::new(); everyone.len()];
    let mut inter = vec![Vec::new(); everyone.len()];
    let (mut own, mut foreign) = (Vec::new(), Vec::new());
    let mut start = 0;
    for members in &layout.groups {
        let end = start + members.len();
        foreign.clear();
        foreign.extend_from_slice(&everyone[..start]);
        foreign.extend_from_slice(&everyone[end..]);
        let intra_size = kmg_view_size(b, members.len());
        for (at, &me) in members.iter().enumerate() {
            intra[me.index()] = sample_others(members, Some(at), intra_size, &mut own, rng);
            // A draw only permutes the pool: it still holds the foreigners.
            inter[me.index()] = foreign.partial_shuffle(rng, inter_size).0.to_vec();
        }
        start = end;
    }
    Ok(HierarchicalTables { intra, inter })
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::rng_from_seed;
    use std::collections::HashSet;

    #[test]
    fn partition_covers_population() {
        let mut rng = rng_from_seed(1);
        let layout = HierarchicalLayout::partition(100, 10, &mut rng).unwrap();
        assert_eq!(layout.group_count(), 10);
        let all: HashSet<_> = (0..10).flat_map(|g| layout.groups[g].to_vec()).collect();
        assert_eq!(all.len(), 100);
        for g in 0..10 {
            assert_eq!(layout.groups[g].len(), 10);
        }
    }

    #[test]
    fn partition_uneven_sizes() {
        let mut rng = rng_from_seed(2);
        let layout = HierarchicalLayout::partition(10, 3, &mut rng).unwrap();
        let sizes: Vec<usize> = (0..3).map(|g| layout.groups[g].len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn partition_validation() {
        let mut rng = rng_from_seed(3);
        assert!(HierarchicalLayout::partition(10, 0, &mut rng).is_err());
        assert!(HierarchicalLayout::partition(5, 10, &mut rng).is_err());
    }

    /// Each group's members as a set, in group order.
    fn group_sets(layout: &HierarchicalLayout) -> Vec<HashSet<ProcessId>> {
        (0..layout.group_count())
            .map(|g| layout.groups[g].iter().copied().collect())
            .collect()
    }

    #[test]
    fn each_process_lies_in_exactly_one_group() {
        let mut rng = rng_from_seed(4);
        let layout = HierarchicalLayout::partition(30, 5, &mut rng).unwrap();
        let sets = group_sets(&layout);
        for pid in (0..30).map(ProcessId) {
            assert_eq!(sets.iter().filter(|set| set.contains(&pid)).count(), 1);
        }
        assert!(sets.iter().all(|set| !set.contains(&ProcessId(999))));
    }

    #[test]
    fn tables_are_disjoint_between_levels() {
        let mut rng = rng_from_seed(5);
        let layout = HierarchicalLayout::partition(60, 6, &mut rng).unwrap();
        let tables = static_hierarchical_tables(&layout, 3.0, &mut rng).unwrap();
        for (g, set) in group_sets(&layout).iter().enumerate() {
            for &pid in &layout.groups[g] {
                let own = &tables.intra[pid.index()];
                assert!(own.iter().all(|p| set.contains(p)));
                assert!(!own.contains(&pid));
                let foreign = &tables.inter[pid.index()];
                assert!(foreign.iter().all(|p| !set.contains(p)));
            }
        }
    }

    #[test]
    fn table_sizes_follow_kmg() {
        let mut rng = rng_from_seed(6);
        let layout = HierarchicalLayout::partition(100, 10, &mut rng).unwrap();
        let tables = static_hierarchical_tables(&layout, 3.0, &mut rng).unwrap();
        // m = 10 → (3+1)·ln(10) = 9.2 → capped at 9; N = 10 → same.
        for own in &tables.intra {
            assert_eq!(own.len(), 9);
        }
        for foreign in &tables.inter {
            assert_eq!(foreign.len(), kmg_view_size(3.0, 10));
        }
    }
}
