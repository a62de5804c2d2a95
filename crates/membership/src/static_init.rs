//! Static membership initialisation — the paper's simulation mode.
//!
//! Sec. VII-A: "In the simulation, the membership tables (topic table and
//! supertopic table) of a process are determined statically. These tables
//! are initialized at the beginning of the simulation and do not change."
//!
//! Given the member lists of every group, these functions draw, for each
//! member, a uniform random topic table of size `(b + 1)·ln(S)` and a
//! supertopic table of size `z` pointing into the supergroup. A table of
//! `k` entries costs `k` draws: the candidates are copied into one scratch
//! pool per group and a partial Fisher–Yates picks the table from it.

use crate::{kmg_view_size, MembershipError};
use da_core::ProcessId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `k` of `group` less its entry at `skip`, uniformly and with one
/// draw per pick. `pool` is scratch space, refilled from `group` first.
pub fn sample_others<R: Rng>(
    group: &[ProcessId],
    skip: Option<usize>,
    k: usize,
    pool: &mut Vec<ProcessId>,
    rng: &mut R,
) -> Vec<ProcessId> {
    pool.clear();
    match skip {
        Some(at) => {
            pool.extend_from_slice(&group[..at]);
            pool.extend_from_slice(&group[at + 1..]);
        }
        None => pool.extend_from_slice(group),
    }
    pool.partial_shuffle(rng, k).0.to_vec()
}

/// Draws a static topic table for every member of a group: a uniform
/// sample of `min(S−1, ⌈(b+1)·ln(S)⌉)` *other* members. Table `i` is
/// `members[i]`'s.
///
/// # Errors
///
/// Returns [`MembershipError::EmptyGroup`] when `members` is empty.
pub fn static_topic_tables<R: Rng>(
    members: &[ProcessId],
    b: f64,
    rng: &mut R,
) -> Result<Vec<Vec<ProcessId>>, MembershipError> {
    if members.is_empty() {
        return Err(MembershipError::EmptyGroup {
            context: "static_topic_tables",
        });
    }
    let view_size = kmg_view_size(b, members.len());
    let mut pool = Vec::with_capacity(members.len());
    Ok((0..members.len())
        .map(|at| sample_others(members, Some(at), view_size, &mut pool, rng))
        .collect())
}

/// Draws a static supertopic table (`sTable`, size `z`) for every member of
/// a group, sampling uniformly from the supergroup; table `i` is
/// `members[i]`'s. Entries are distinct and never the member itself; when
/// the supergroup is smaller than `z` every superprocess is listed.
///
/// # Errors
///
/// Returns [`MembershipError::EmptyGroup`] when either list is empty, and
/// [`MembershipError::InvalidParameter`] when `z == 0`.
pub fn static_super_tables<R: Rng>(
    members: &[ProcessId],
    supergroup: &[ProcessId],
    z: usize,
    rng: &mut R,
) -> Result<Vec<Vec<ProcessId>>, MembershipError> {
    if members.is_empty() {
        return Err(MembershipError::EmptyGroup {
            context: "static_super_tables (members)",
        });
    }
    if supergroup.is_empty() {
        return Err(MembershipError::EmptyGroup {
            context: "static_super_tables (supergroup)",
        });
    }
    if z == 0 {
        return Err(MembershipError::InvalidParameter {
            reason: "supertopic table size z must be positive".to_owned(),
        });
    }
    let mut pool = Vec::with_capacity(supergroup.len());
    Ok(members
        .iter()
        .map(|me| {
            let skip = supergroup.iter().position(|p| p == me);
            sample_others(supergroup, skip, z, &mut pool, rng)
        })
        .collect())
}

/// Assigns dense process ids to the groups of a linear topic chain.
///
/// `group_sizes[i]` is `S_Ti`; the returned vector maps level `i` to the
/// list of process ids interested in `Ti`. Ids are assigned contiguously
/// top-down: the root group gets `0..S_T0`, then `T1`, and so on — matching
/// the paper's assumption that every process is interested in exactly one
/// topic.
#[must_use]
pub fn assign_group_members(group_sizes: &[usize]) -> Vec<Vec<ProcessId>> {
    let mut next = 0u32;
    group_sizes
        .iter()
        .map(|&size| {
            let members = (next..next + size as u32).map(ProcessId).collect();
            next += size as u32;
            members
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::rng_from_seed;
    use std::collections::HashSet;

    fn members(n: u32) -> Vec<ProcessId> {
        (0..n).map(ProcessId).collect()
    }

    #[test]
    fn topic_tables_have_kmg_size() {
        let mut rng = rng_from_seed(1);
        let group = members(100);
        let tables = static_topic_tables(&group, 3.0, &mut rng).unwrap();
        assert_eq!(tables.len(), 100);
        for (me, table) in group.iter().zip(&tables) {
            assert_eq!(table.len(), 19); // (3+1)·ln(100) → 19
            assert!(!table.contains(me), "no self-reference");
            let unique: HashSet<_> = table.iter().collect();
            assert_eq!(unique.len(), table.len(), "no duplicates");
        }
    }

    #[test]
    fn topic_tables_tiny_group() {
        let mut rng = rng_from_seed(2);
        let group = members(2);
        let tables = static_topic_tables(&group, 3.0, &mut rng).unwrap();
        assert_eq!(tables, [vec![ProcessId(1)], vec![ProcessId(0)]]);
    }

    #[test]
    fn topic_tables_single_member() {
        let mut rng = rng_from_seed(3);
        let group = members(1);
        let tables = static_topic_tables(&group, 3.0, &mut rng).unwrap();
        assert_eq!(tables, [Vec::<ProcessId>::new()]);
    }

    #[test]
    fn empty_group_rejected() {
        let mut rng = rng_from_seed(4);
        assert!(static_topic_tables(&[], 3.0, &mut rng).is_err());
    }

    #[test]
    fn super_tables_sample_supergroup() {
        let mut rng = rng_from_seed(5);
        let group = members(10);
        let supergroup: Vec<ProcessId> = (100..150).map(ProcessId).collect();
        let tables = static_super_tables(&group, &supergroup, 3, &mut rng).unwrap();
        for table in &tables {
            assert_eq!(table.len(), 3);
            assert!(table.iter().all(|p| supergroup.contains(p)));
            let unique: HashSet<_> = table.iter().collect();
            assert_eq!(unique.len(), 3);
        }
    }

    #[test]
    fn super_tables_small_supergroup_lists_everyone() {
        let mut rng = rng_from_seed(6);
        let group = members(5);
        let supergroup = vec![ProcessId(100), ProcessId(101)];
        let tables = static_super_tables(&group, &supergroup, 5, &mut rng).unwrap();
        for table in &tables {
            assert_eq!(table.len(), 2);
        }
    }

    #[test]
    fn super_tables_never_list_the_member_itself() {
        let mut rng = rng_from_seed(8);
        let group = members(4);
        let supergroup = members(6);
        let tables = static_super_tables(&group, &supergroup, 5, &mut rng).unwrap();
        for (me, table) in group.iter().zip(&tables) {
            assert_eq!(table.len(), 5);
            assert!(!table.contains(me));
        }
    }

    /// A table of `k` entries costs `k` draws, so a group's tables cost
    /// `S·k`: no member shuffles the whole group to keep `k` of it.
    #[test]
    fn a_group_of_tables_costs_one_draw_per_entry() {
        use rand::RngCore;
        let group = members(100);
        let supergroup: Vec<ProcessId> = (100..150).map(ProcessId).collect();
        let mut rng = rng_from_seed(10);
        let mut by_hand = rng.clone();
        static_topic_tables(&group, 3.0, &mut rng).unwrap();
        static_super_tables(&group, &supergroup, 3, &mut rng).unwrap();
        for _ in 0..100 * (19 + 3) {
            by_hand.next_u64();
        }
        assert_eq!(rng.next_u64(), by_hand.next_u64());
    }

    #[test]
    fn super_tables_validation() {
        let mut rng = rng_from_seed(7);
        let group = members(3);
        let supergroup = members(3);
        assert!(static_super_tables(&[], &supergroup, 3, &mut rng).is_err());
        assert!(static_super_tables(&group, &[], 3, &mut rng).is_err());
        assert!(static_super_tables(&group, &supergroup, 0, &mut rng).is_err());
    }

    #[test]
    fn assign_members_paper_topology() {
        // The paper's setting: S_T0 = 10, S_T1 = 100, S_T2 = 1000.
        let groups = assign_group_members(&[10, 100, 1000]);
        assert_eq!(groups[0].len(), 10);
        assert_eq!(groups[1].len(), 100);
        assert_eq!(groups[2].len(), 1000);
        // Contiguous and disjoint.
        assert_eq!(groups[0][0], ProcessId(0));
        assert_eq!(groups[1][0], ProcessId(10));
        assert_eq!(groups[2][0], ProcessId(110));
        let all: HashSet<_> = groups.iter().flatten().collect();
        assert_eq!(all.len(), 1110);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let group = members(50);
        let a = static_topic_tables(&group, 3.0, &mut rng_from_seed(9)).unwrap();
        let b = static_topic_tables(&group, 3.0, &mut rng_from_seed(9)).unwrap();
        assert_eq!(a, b);
    }
}
