//! Multiple-inheritance topic graphs.
//!
//! The paper's concluding remarks note that a topic may have several direct
//! supertopics ("multiple inheritance") and that daMulticast supports this
//! "by adding a supertopic table for each supertopic". This module provides
//! the substrate for that extension: a rooted DAG of topics where inclusion
//! is reachability.

use crate::{TopicError, TopicId};
use std::collections::{HashMap, HashSet, VecDeque};

/// A rooted directed acyclic graph of topics supporting multiple direct
/// supertopics per topic.
///
/// Node 0 is always the root. Every non-root topic has at least one parent;
/// inclusion (`includes`) is reachability through parent edges. Used by the
/// multiple-inheritance extension of daMulticast
/// (`damulticast::multi_super`).
///
/// ```
/// use da_topics::dag::TopicDag;
///
/// # fn main() -> Result<(), da_topics::TopicError> {
/// let mut g = TopicDag::new();
/// let sports = g.add_topic("sports", &[])?;       // parent defaults to root
/// let europe = g.add_topic("europe", &[])?;
/// let football = g.add_topic("football", &[sports, europe])?;
/// assert!(g.includes(sports, football));
/// assert!(g.includes(europe, football));
/// assert_eq!(g.parents(football).len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopicDag {
    names: Vec<String>,
    parents: Vec<Vec<TopicId>>,
    children: Vec<Vec<TopicId>>,
}

impl TopicDag {
    /// Creates a DAG containing only the root topic.
    #[must_use]
    pub fn new() -> Self {
        TopicDag {
            names: vec![".".to_owned()],
            parents: vec![Vec::new()],
            children: vec![Vec::new()],
        }
    }

    /// The root topic id.
    #[must_use]
    pub fn root(&self) -> TopicId {
        TopicId::ROOT
    }

    /// Number of topics including the root.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false: the root is always present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a topic with the given display name and direct supertopics.
    /// An empty `supertopics` slice attaches the topic to the root.
    ///
    /// # Errors
    ///
    /// Returns [`TopicError::UnknownTopic`] if any parent id is foreign.
    pub fn add_topic(
        &mut self,
        name: &str,
        supertopics: &[TopicId],
    ) -> Result<TopicId, TopicError> {
        for &p in supertopics {
            self.check(p)?;
        }
        let id = TopicId::from_index(self.names.len());
        self.names.push(name.to_owned());
        let effective: Vec<TopicId> = if supertopics.is_empty() {
            vec![self.root()]
        } else {
            let mut unique: Vec<TopicId> = Vec::with_capacity(supertopics.len());
            for &p in supertopics {
                if !unique.contains(&p) {
                    unique.push(p);
                }
            }
            unique
        };
        for &p in &effective {
            self.children[p.index()].push(id);
        }
        self.parents.push(effective);
        self.children.push(Vec::new());
        Ok(id)
    }

    /// Adds an extra supertopic edge `child → parent`.
    ///
    /// # Errors
    ///
    /// * [`TopicError::UnknownTopic`] for foreign ids.
    /// * [`TopicError::DuplicateEdge`] when the edge already exists.
    /// * [`TopicError::WouldCycle`] when `parent` is a descendant of
    ///   `child` (the edge would create a cycle).
    pub fn add_supertopic(&mut self, child: TopicId, parent: TopicId) -> Result<(), TopicError> {
        self.check(child)?;
        self.check(parent)?;
        if self.parents[child.index()].contains(&parent) {
            return Err(TopicError::DuplicateEdge {
                child: child.index() as u32,
                parent: parent.index() as u32,
            });
        }
        if child == parent || self.includes(child, parent) {
            return Err(TopicError::WouldCycle {
                id: child.index() as u32,
            });
        }
        self.parents[child.index()].push(parent);
        self.children[parent.index()].push(child);
        Ok(())
    }

    /// Display name of a topic.
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign.
    #[must_use]
    pub fn name(&self, id: TopicId) -> &str {
        &self.names[id.index()]
    }

    /// Direct supertopics of `id` (empty only for the root).
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign.
    #[must_use]
    pub fn parents(&self, id: TopicId) -> &[TopicId] {
        &self.parents[id.index()]
    }

    /// Direct subtopics of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign.
    #[must_use]
    pub fn children(&self, id: TopicId) -> &[TopicId] {
        &self.children[id.index()]
    }

    /// Strict inclusion: true when `ancestor` is reachable from
    /// `descendant` through parent edges.
    ///
    /// # Panics
    ///
    /// Panics if either id is foreign.
    #[must_use]
    pub fn includes(&self, ancestor: TopicId, descendant: TopicId) -> bool {
        if ancestor == descendant {
            return false;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from_iter(self.parents[descendant.index()].iter().copied());
        while let Some(t) = queue.pop_front() {
            if t == ancestor {
                return true;
            }
            if seen.insert(t) {
                queue.extend(self.parents[t.index()].iter().copied());
            }
        }
        false
    }

    /// All strict ancestors of `id` in breadth-first order (deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign.
    #[must_use]
    pub fn ancestors(&self, id: TopicId) -> Vec<TopicId> {
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        let mut queue = VecDeque::from_iter(self.parents[id.index()].iter().copied());
        while let Some(t) = queue.pop_front() {
            if seen.insert(t) {
                order.push(t);
                queue.extend(self.parents[t.index()].iter().copied());
            }
        }
        order
    }

    /// Topological order over all topics (parents before children).
    #[must_use]
    pub fn topological_order(&self) -> Vec<TopicId> {
        let mut indegree: HashMap<usize, usize> = (0..self.len())
            .map(|i| (i, self.parents[i].len()))
            .collect();
        let mut queue: VecDeque<usize> = (0..self.len()).filter(|i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(i) = queue.pop_front() {
            order.push(TopicId::from_index(i));
            for &c in &self.children[i] {
                let d = indegree
                    .get_mut(&c.index())
                    .expect("all nodes have an indegree entry");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(c.index());
                }
            }
        }
        order
    }

    fn check(&self, id: TopicId) -> Result<(), TopicError> {
        if id.index() < self.names.len() {
            Ok(())
        } else {
            Err(TopicError::UnknownTopic {
                id: id.index() as u32,
            })
        }
    }
}

impl Default for TopicDag {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_dag_has_root() {
        let g = TopicDag::new();
        assert_eq!(g.len(), 1);
        assert_eq!(g.name(g.root()), ".");
        assert!(g.parents(g.root()).is_empty());
    }

    #[test]
    fn default_parent_is_root() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        assert_eq!(g.parents(a), &[g.root()]);
        assert!(g.includes(g.root(), a));
    }

    #[test]
    fn diamond_inclusion() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        let b = g.add_topic("b", &[]).unwrap();
        let c = g.add_topic("c", &[a, b]).unwrap();
        assert!(g.includes(a, c));
        assert!(g.includes(b, c));
        assert!(g.includes(g.root(), c));
        assert!(!g.includes(c, a));
        assert!(!g.includes(a, b));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        let b = g.add_topic("b", &[a]).unwrap();
        assert!(matches!(
            g.add_supertopic(a, b),
            Err(TopicError::WouldCycle { .. })
        ));
        assert!(matches!(
            g.add_supertopic(a, a),
            Err(TopicError::WouldCycle { .. })
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        let b = g.add_topic("b", &[a]).unwrap();
        assert!(matches!(
            g.add_supertopic(b, a),
            Err(TopicError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn duplicate_parents_deduplicated_on_add() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        let b = g.add_topic("b", &[a, a]).unwrap();
        assert_eq!(g.parents(b).len(), 1);
    }

    #[test]
    fn foreign_ids_rejected() {
        let mut g = TopicDag::new();
        let foreign = TopicId::from_index(99);
        assert!(matches!(
            g.add_topic("x", &[foreign]),
            Err(TopicError::UnknownTopic { .. })
        ));
    }

    #[test]
    fn ancestors_deduplicated() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        let b = g.add_topic("b", &[]).unwrap();
        let c = g.add_topic("c", &[a, b]).unwrap();
        let anc = g.ancestors(c);
        assert_eq!(anc.len(), 3); // a, b, root — root only once
        assert!(anc.contains(&g.root()));
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        let b = g.add_topic("b", &[a]).unwrap();
        let c = g.add_topic("c", &[a, b]).unwrap();
        let order = g.topological_order();
        let pos = |t: TopicId| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(g.root()) < pos(a));
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
        assert_eq!(order.len(), g.len());
    }

    #[test]
    fn extra_supertopic_edge() {
        let mut g = TopicDag::new();
        let a = g.add_topic("a", &[]).unwrap();
        let b = g.add_topic("b", &[]).unwrap();
        let c = g.add_topic("c", &[a]).unwrap();
        assert!(!g.includes(b, c));
        g.add_supertopic(c, b).unwrap();
        assert!(g.includes(b, c));
        assert_eq!(g.parents(c).len(), 2);
    }
}
