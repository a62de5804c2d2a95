//! Two-level process layout for the paper's baseline (c).
//!
//! "Hierarchical gossip-based broadcast" (Sec. VI-E, technique of \[10\])
//! splits the system into `N` small groups *independent of interests*.
//! Each process keeps two views: one over its own group (intra) and one
//! over the rest of the system (inter); an event is gossiped within the
//! group with fanout `ln(m) + c1` and across groups with fanout
//! `ln(N) + c2`.

use crate::{kmg_view_size, MembershipError};
use da_core::ProcessId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Partition of a population into `N` interest-oblivious groups.
#[derive(Debug, Clone)]
pub struct HierarchicalLayout {
    groups: Vec<Vec<ProcessId>>,
    group_of: HashMap<ProcessId, usize>,
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
        let mut group_of = HashMap::with_capacity(population);
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                group_of.insert(m, g);
            }
        }
        Ok(HierarchicalLayout { groups, group_of })
    }

    /// Number of groups (`N` in the paper).
    fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Members of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn group(&self, g: usize) -> &[ProcessId] {
        &self.groups[g]
    }

    /// The group index of `pid`, or `None` for foreign processes.
    fn group_of(&self, pid: ProcessId) -> Option<usize> {
        self.group_of.get(&pid).copied()
    }

    /// Typical group size (`m` in the paper): the size of group 0.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.groups.first().map_or(0, Vec::len)
    }
}

/// Static intra- and inter-group views for every process of a layout.
///
/// The intra view samples `(b+1)·ln(m)` members of the own group; the
/// inter view samples `(b+1)·ln(N)` processes *outside* it.
#[derive(Debug, Clone)]
pub struct HierarchicalTables {
    /// Per-process view over the own group.
    pub intra: HashMap<ProcessId, Vec<ProcessId>>,
    /// Per-process view over foreign groups.
    pub inter: HashMap<ProcessId, Vec<ProcessId>>,
}

/// Draws static two-level views for every process.
///
/// # Errors
///
/// Returns [`MembershipError::EmptyGroup`] when the layout has no members.
pub fn static_hierarchical_tables<R: Rng>(
    layout: &HierarchicalLayout,
    b: f64,
    rng: &mut R,
) -> Result<HierarchicalTables, MembershipError> {
    let population: usize = (0..layout.group_count())
        .map(|g| layout.group(g).len())
        .sum();
    if population == 0 {
        return Err(MembershipError::EmptyGroup {
            context: "static_hierarchical_tables",
        });
    }
    let inter_size = kmg_view_size(b, layout.group_count());
    let mut intra = HashMap::with_capacity(population);
    let mut inter = HashMap::with_capacity(population);
    let everyone: Vec<ProcessId> = (0..layout.group_count())
        .flat_map(|g| layout.group(g).iter().copied())
        .collect();
    for g in 0..layout.group_count() {
        let members = layout.group(g);
        let intra_size = kmg_view_size(b, members.len());
        for &me in members {
            let mut own: Vec<ProcessId> = members.iter().copied().filter(|&p| p != me).collect();
            own.shuffle(rng);
            own.truncate(intra_size);
            intra.insert(me, own);

            let mut foreign: Vec<ProcessId> = everyone
                .iter()
                .copied()
                .filter(|&p| layout.group_of(p) != Some(g))
                .collect();
            foreign.shuffle(rng);
            foreign.truncate(inter_size);
            inter.insert(me, foreign);
        }
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
        let all: HashSet<_> = (0..10).flat_map(|g| layout.group(g).to_vec()).collect();
        assert_eq!(all.len(), 100);
        for g in 0..10 {
            assert_eq!(layout.group(g).len(), 10);
        }
    }

    #[test]
    fn partition_uneven_sizes() {
        let mut rng = rng_from_seed(2);
        let layout = HierarchicalLayout::partition(10, 3, &mut rng).unwrap();
        let sizes: Vec<usize> = (0..3).map(|g| layout.group(g).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn partition_validation() {
        let mut rng = rng_from_seed(3);
        assert!(HierarchicalLayout::partition(10, 0, &mut rng).is_err());
        assert!(HierarchicalLayout::partition(5, 10, &mut rng).is_err());
    }

    #[test]
    fn group_of_is_consistent() {
        let mut rng = rng_from_seed(4);
        let layout = HierarchicalLayout::partition(30, 5, &mut rng).unwrap();
        for g in 0..5 {
            for &m in layout.group(g) {
                assert_eq!(layout.group_of(m), Some(g));
            }
        }
        assert_eq!(layout.group_of(ProcessId(999)), None);
    }

    #[test]
    fn tables_are_disjoint_between_levels() {
        let mut rng = rng_from_seed(5);
        let layout = HierarchicalLayout::partition(60, 6, &mut rng).unwrap();
        let tables = static_hierarchical_tables(&layout, 3.0, &mut rng).unwrap();
        for (pid, own) in &tables.intra {
            let g = layout.group_of(*pid).unwrap();
            assert!(own.iter().all(|p| layout.group_of(*p) == Some(g)));
            assert!(!own.contains(pid));
        }
        for (pid, foreign) in &tables.inter {
            let g = layout.group_of(*pid).unwrap();
            assert!(foreign.iter().all(|p| layout.group_of(*p) != Some(g)));
        }
    }

    #[test]
    fn table_sizes_follow_kmg() {
        let mut rng = rng_from_seed(6);
        let layout = HierarchicalLayout::partition(100, 10, &mut rng).unwrap();
        let tables = static_hierarchical_tables(&layout, 3.0, &mut rng).unwrap();
        // m = 10 → (3+1)·ln(10) = 9.2 → capped at 9; N = 10 → same.
        for own in tables.intra.values() {
            assert_eq!(own.len(), 9);
        }
        for foreign in tables.inter.values() {
            assert_eq!(foreign.len(), kmg_view_size(3.0, 10));
        }
    }
}
