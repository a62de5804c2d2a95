//! Weakly-consistent neighbourhood overlay.
//!
//! The paper's bootstrap ("FIND_SUPER_CONTACT", Fig. 4) floods
//! initialization requests through `neighborhood(p)` — "the nearest set of
//! reachable processes from a process" — relying "only on a weakly
//! consistent global membership". This module provides that substrate: a
//! static random overlay graph over the whole population, independent of
//! topic interests.

use crate::MembershipError;
use da_core::seed::{derive_seed, rng_from_seed};
use da_core::ProcessId;
use rand::seq::SliceRandom;

/// A static undirected overlay graph assigning each process a small random
/// neighbourhood.
///
/// The graph is a ring (guaranteeing connectivity) augmented with random
/// chords until every process has at least `degree` neighbours.
///
/// ```
/// use da_core::ProcessId;
/// use da_membership::Overlay;
/// let overlay = Overlay::random(10, 4, 42).unwrap();
/// assert!(overlay.neighbors(ProcessId(0)).len() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Overlay {
    neighbors: Vec<Vec<ProcessId>>,
}

impl Overlay {
    /// Builds a connected random overlay over `population` processes where
    /// every process has at least `degree` neighbours (capped at
    /// `population - 1`).
    ///
    /// # Errors
    ///
    /// Returns [`MembershipError::EmptyGroup`] when `population == 0`.
    pub fn random(population: usize, degree: usize, seed: u64) -> Result<Self, MembershipError> {
        if population == 0 {
            return Err(MembershipError::EmptyGroup { context: "overlay" });
        }
        let mut rng = rng_from_seed(derive_seed(seed, 0x0E41));
        let degree = degree.min(population.saturating_sub(1));
        let mut sets: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); population];
        // Ring for connectivity.
        if population > 1 {
            for i in 0..population {
                let next = (i + 1) % population;
                sets[i].insert(next);
                sets[next].insert(i);
            }
        }
        // Random chords until the degree target is met.
        let candidates: Vec<usize> = (0..population).collect();
        for i in 0..population {
            let mut guard = 0usize;
            while sets[i].len() < degree && guard < population * 4 {
                guard += 1;
                let j = *candidates
                    .choose(&mut rng)
                    .expect("population is non-empty");
                if j != i {
                    sets[i].insert(j);
                    sets[j].insert(i);
                }
            }
        }
        // Shuffle adjacency lists so iteration order carries no positional
        // bias (the bootstrap samples "the first k neighbours" in places).
        let neighbors = sets
            .into_iter()
            .map(|s| {
                let mut v: Vec<ProcessId> = s.into_iter().map(ProcessId::from_index).collect();
                v.shuffle(&mut rng);
                v
            })
            .collect();
        Ok(Overlay { neighbors })
    }

    /// The neighbourhood of `pid` — `neighborhood(pl)` in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is outside the overlay's population.
    #[must_use]
    pub fn neighbors(&self, pid: ProcessId) -> &[ProcessId] {
        &self.neighbors[pid.index()]
    }

    /// Number of processes covered by the overlay.
    #[must_use]
    pub fn population(&self) -> usize {
        self.neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    #[test]
    fn zero_population_rejected() {
        let empty = MembershipError::EmptyGroup { context: "overlay" };
        assert_eq!(Overlay::random(0, 3, 1).unwrap_err(), empty);
    }

    #[test]
    fn degree_met() {
        let o = Overlay::random(50, 6, 7).unwrap();
        for i in 0..50 {
            assert!(
                o.neighbors(ProcessId(i)).len() >= 6,
                "process {i} under-connected"
            );
        }
    }

    #[test]
    fn degree_capped_for_tiny_population() {
        let o = Overlay::random(3, 10, 7).unwrap();
        for i in 0..3 {
            assert_eq!(o.neighbors(ProcessId(i)).len(), 2);
        }
    }

    #[test]
    fn no_self_loops_and_symmetric() {
        let o = Overlay::random(30, 5, 11).unwrap();
        for i in 0..30u32 {
            let pid = ProcessId(i);
            for &n in o.neighbors(pid) {
                assert_ne!(n, pid, "self loop at {pid}");
                assert!(
                    o.neighbors(n).contains(&pid),
                    "edge {pid}->{n} not symmetric"
                );
            }
        }
    }

    #[test]
    fn graph_is_connected() {
        let o = Overlay::random(64, 3, 13).unwrap();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([ProcessId(0)]);
        seen.insert(ProcessId(0));
        while let Some(p) = queue.pop_front() {
            for &n in o.neighbors(p) {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Overlay::random(20, 4, 5).unwrap();
        let b = Overlay::random(20, 4, 5).unwrap();
        for i in 0..20 {
            assert_eq!(a.neighbors(ProcessId(i)), b.neighbors(ProcessId(i)));
        }
    }
}
