//! Interest assignment, the input every baseline builder draws its
//! tables from.

use da_core::ProcessId;
use da_topics::{TopicHierarchy, TopicId};
use std::sync::Arc;

/// Which topic each process is interested in (the paper's simplifying
/// assumption: one topic per process, Sec. III-A).
#[derive(Debug, Clone)]
pub struct InterestMap {
    hierarchy: Arc<TopicHierarchy>,
    interests: Vec<TopicId>,
}

impl InterestMap {
    /// Builds the map from a dense per-process interest vector
    /// (`interests[i]` is the topic of `ProcessId(i)`).
    #[must_use]
    pub fn new(hierarchy: Arc<TopicHierarchy>, interests: Vec<TopicId>) -> Self {
        InterestMap {
            hierarchy,
            interests,
        }
    }

    /// Builds the interest vector of a linear chain with the given group
    /// sizes (ids allocated top-down like
    /// [`da_membership::static_init::assign_group_members`]).
    #[must_use]
    pub fn linear(group_sizes: &[usize]) -> Self {
        let (hierarchy, ids) = TopicHierarchy::linear_chain(group_sizes.len());
        let mut interests = Vec::with_capacity(group_sizes.iter().sum());
        for (level, &size) in group_sizes.iter().enumerate() {
            interests.extend(std::iter::repeat_n(ids[level], size));
        }
        InterestMap {
            hierarchy: Arc::new(hierarchy),
            interests,
        }
    }

    /// The backing hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &Arc<TopicHierarchy> {
        &self.hierarchy
    }

    /// Population size.
    #[must_use]
    pub fn population(&self) -> usize {
        self.interests.len()
    }

    /// The interest topic of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is outside the population.
    #[must_use]
    pub fn interest_of(&self, pid: ProcessId) -> TopicId {
        self.interests[pid.index()]
    }

    /// True when `pid` wants events of `topic` — its interest is `topic`
    /// itself or a supertopic of it.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is outside the population.
    #[must_use]
    pub fn wants(&self, pid: ProcessId, topic: TopicId) -> bool {
        self.hierarchy.includes_or_eq(self.interest_of(pid), topic)
    }

    /// All processes interested in events of `topic`: subscribers of
    /// `topic` itself or of any supertopic.
    #[must_use]
    pub fn audience(&self, topic: TopicId) -> Vec<ProcessId> {
        (0..self.population())
            .map(ProcessId::from_index)
            .filter(|&p| self.wants(p, topic))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interest_assignment() {
        let m = InterestMap::linear(&[2, 3]);
        assert_eq!(m.population(), 5);
        let root = m.hierarchy().root();
        assert_eq!(m.interest_of(ProcessId(0)), root);
        assert_eq!(m.interest_of(ProcessId(1)), root);
        let t1 = m.interest_of(ProcessId(2));
        assert_ne!(t1, root);
        assert_eq!(m.interest_of(ProcessId(4)), t1);
    }

    #[test]
    fn wants_follows_inclusion() {
        let m = InterestMap::linear(&[1, 1, 1]);
        let root = m.hierarchy().root();
        let t1 = m.interest_of(ProcessId(1));
        let t2 = m.interest_of(ProcessId(2));
        // Root subscriber wants everything.
        assert!(m.wants(ProcessId(0), root));
        assert!(m.wants(ProcessId(0), t1));
        assert!(m.wants(ProcessId(0), t2));
        // Leaf subscriber wants only its own topic (and subtopics).
        assert!(m.wants(ProcessId(2), t2));
        assert!(!m.wants(ProcessId(2), t1));
        assert!(!m.wants(ProcessId(2), root));
    }

    #[test]
    fn audience_of_leaf_topic_is_everyone_above() {
        let m = InterestMap::linear(&[2, 3, 4]);
        let t2 = m.interest_of(ProcessId(8));
        assert_eq!(m.audience(t2).len(), 9, "all subscribers want T2 events");
        let root = m.hierarchy().root();
        assert_eq!(
            m.audience(root).len(),
            2,
            "only root subscribers want root events"
        );
    }
}
