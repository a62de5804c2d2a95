use crate::iter::Descendants;
use crate::{TopicError, TopicId, TopicPath};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// One topic of a [`TopicHierarchy`].
#[derive(Debug, Clone)]
struct Node {
    path: TopicPath,
    /// The direct supertopics: the path's parent first, then those added
    /// by [`TopicHierarchy::add_supertopic`]. Empty for the root.
    parents: Vec<TopicId>,
    /// The direct subtopics over every edge, in insertion order.
    children: Vec<TopicId>,
    /// Every strict ancestor over every edge, nearest first, each once.
    ancestors: Vec<TopicId>,
}

/// A rooted topic hierarchy with interned ids.
///
/// This is the "hierarchical disposition of topics" the paper assumes is
/// available in every topic-based publish/subscribe system. Each topic is
/// named by a dotted path, and the path's parent is its first direct
/// supertopic. [`TopicHierarchy::add_supertopic`] gives a topic more
/// (Sec. VIII's multiple inheritance), which makes the hierarchy a DAG:
/// inclusion and ancestry follow every edge, while [`TopicHierarchy::path`],
/// [`TopicHierarchy::depth`] and [`TopicHierarchy::parent`] follow the
/// path tree.
///
/// The root topic `.` always exists with id [`TopicId::ROOT`].
///
/// ```
/// use da_topics::TopicHierarchy;
///
/// # fn main() -> Result<(), da_topics::TopicError> {
/// let mut h = TopicHierarchy::new();
/// let t2 = h.insert(".world.europe.ch")?;
/// assert_eq!(h.len(), 4); // root, .world, .world.europe, .world.europe.ch
/// assert_eq!(h.depth(t2), 3);
/// assert!(h.includes(h.root(), t2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopicHierarchy {
    nodes: Vec<Node>,
    index: HashMap<String, TopicId>,
}

impl TopicHierarchy {
    /// Creates a hierarchy containing only the root topic `.`.
    #[must_use]
    pub fn new() -> Self {
        let root = Node {
            path: TopicPath::root(),
            parents: Vec::new(),
            children: Vec::new(),
            ancestors: Vec::new(),
        };
        let mut index = HashMap::new();
        index.insert(".".to_owned(), TopicId::ROOT);
        TopicHierarchy {
            nodes: vec![root],
            index,
        }
    }

    /// Builds a hierarchy from an iterator of dotted paths, creating all
    /// intermediate topics.
    ///
    /// # Errors
    ///
    /// Propagates [`TopicError`] from path parsing.
    pub fn from_paths<I, S>(paths: I) -> Result<Self, TopicError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut h = TopicHierarchy::new();
        for p in paths {
            h.insert(p.as_ref())?;
        }
        Ok(h)
    }

    /// Builds the linear chain `T0 ← T1 ← ... ← T(levels-1)` used throughout
    /// the paper's analysis and simulation (Sec. VI-A, VII-A), where `T0` is
    /// the root. Returns the hierarchy and the ids, index `i` = `Ti`.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` (a hierarchy always has at least the root).
    #[must_use]
    pub fn linear_chain(levels: usize) -> (Self, Vec<TopicId>) {
        assert!(levels > 0, "a topic hierarchy has at least the root level");
        let mut h = TopicHierarchy::new();
        let mut ids = Vec::with_capacity(levels);
        ids.push(h.root());
        let mut path = TopicPath::root();
        for level in 1..levels {
            path = path
                .child(&format!("t{level}"))
                .expect("generated segments are valid");
            let id = h.insert_path(&path).expect("generated paths are valid");
            ids.push(id);
        }
        (h, ids)
    }

    /// The root topic id.
    #[must_use]
    pub fn root(&self) -> TopicId {
        TopicId::ROOT
    }

    /// Number of topics, including the root.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: the root topic is always present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Inserts a topic by dotted path, creating intermediate topics as
    /// needed. Returns the id of the (possibly pre-existing) topic.
    ///
    /// # Errors
    ///
    /// Returns a [`TopicError`] if the path fails to parse.
    pub fn insert(&mut self, path: &str) -> Result<TopicId, TopicError> {
        let parsed = TopicPath::parse(path)?;
        self.insert_path(&parsed)
    }

    /// Inserts an already-parsed path. See [`TopicHierarchy::insert`].
    ///
    /// # Errors
    ///
    /// Never fails for paths produced by [`TopicPath`] constructors; the
    /// `Result` mirrors [`TopicHierarchy::insert`] for API uniformity.
    pub fn insert_path(&mut self, path: &TopicPath) -> Result<TopicId, TopicError> {
        if let Some(&id) = self.index.get(path.as_str()) {
            return Ok(id);
        }
        // Recursively ensure the parent exists, then attach.
        let parent_path = path
            .parent()
            .expect("non-root paths have parents; root is always indexed");
        let parent_id = self.insert_path(&parent_path)?;
        let id = TopicId::from_index(self.nodes.len());
        let mut ancestors = vec![parent_id];
        ancestors.extend_from_slice(&self.nodes[parent_id.index()].ancestors);
        self.nodes.push(Node {
            path: path.clone(),
            parents: vec![parent_id],
            children: Vec::new(),
            ancestors,
        });
        self.nodes[parent_id.index()].children.push(id);
        self.index.insert(path.as_str().to_owned(), id);
        Ok(id)
    }

    /// Makes `parent` a direct supertopic of `child` beyond its path's
    /// parent (Sec. VIII's multiple inheritance): from now on `parent` and
    /// its ancestors include `child` and everything below it.
    ///
    /// # Errors
    ///
    /// * [`TopicError::UnknownTopic`] for a foreign id.
    /// * [`TopicError::DuplicateEdge`] when `parent` is already a direct
    ///   supertopic of `child`.
    /// * [`TopicError::WouldCycle`] when `parent` is `child` or one of its
    ///   descendants.
    ///
    /// ```
    /// use da_topics::TopicHierarchy;
    ///
    /// # fn main() -> Result<(), da_topics::TopicError> {
    /// let mut h = TopicHierarchy::new();
    /// let swiss = h.insert(".swiss")?;
    /// let ski = h.insert(".sport.ski")?;
    /// h.add_supertopic(ski, swiss)?; // Swiss skiing is both
    /// assert!(h.includes(swiss, ski));
    /// assert_eq!(h.parents(ski), [h.resolve(".sport").unwrap(), swiss]);
    /// assert_eq!(h.parent(ski), h.resolve(".sport"), "the path tree stays");
    /// # Ok(())
    /// # }
    /// ```
    pub fn add_supertopic(&mut self, child: TopicId, parent: TopicId) -> Result<(), TopicError> {
        self.check(child)?;
        self.check(parent)?;
        if self.parents(child).contains(&parent) {
            return Err(TopicError::DuplicateEdge {
                child: child.0,
                parent: parent.0,
            });
        }
        if self.includes_or_eq(child, parent) {
            return Err(TopicError::WouldCycle { id: child.0 });
        }
        self.nodes[child.index()].parents.push(parent);
        self.nodes[parent.index()].children.push(child);
        let cone: Vec<TopicId> = self.descendants(child).collect();
        for id in cone {
            self.nodes[id.index()].ancestors = self.search_ancestors(id);
        }
        Ok(())
    }

    /// The strict ancestors of `id` found by a breadth-first search over
    /// the parent edges: nearest first, each once.
    fn search_ancestors(&self, id: TopicId) -> Vec<TopicId> {
        let mut found = Vec::new();
        let mut queue: VecDeque<TopicId> = self.parents(id).iter().copied().collect();
        while let Some(t) = queue.pop_front() {
            if !found.contains(&t) {
                found.push(t);
                queue.extend(self.parents(t));
            }
        }
        found
    }

    /// Looks up a topic id by dotted path string.
    #[must_use]
    pub fn resolve(&self, path: &str) -> Option<TopicId> {
        self.index.get(path).copied()
    }

    /// The canonical path of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn path(&self, id: TopicId) -> &TopicPath {
        &self.nodes[id.index()].path
    }

    /// The path's parent (`super(Ti)` in the paper), or `None` for root.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn parent(&self, id: TopicId) -> Option<TopicId> {
        self.parents(id).first().copied()
    }

    /// Every direct supertopic of `id`, the path's parent first; empty for
    /// the root.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn parents(&self, id: TopicId) -> &[TopicId] {
        &self.nodes[id.index()].parents
    }

    /// Direct subtopics of `id`, over every edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn children(&self, id: TopicId) -> &[TopicId] {
        &self.nodes[id.index()].children
    }

    /// Distance of `id` from the root along the path tree.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn depth(&self, id: TopicId) -> usize {
        self.path(id).depth()
    }

    /// True when `ancestor` strictly includes `descendant` — i.e. `ancestor`
    /// is a (direct or transitive) supertopic of `descendant` over any
    /// edge.
    ///
    /// Inclusion is the partial order the paper routes events along: an
    /// event of topic `Ti` is also an event of every topic including `Ti`.
    ///
    /// # Panics
    ///
    /// Panics if `descendant` does not belong to this hierarchy.
    #[must_use]
    pub fn includes(&self, ancestor: TopicId, descendant: TopicId) -> bool {
        self.nodes[descendant.index()].ancestors.contains(&ancestor)
    }

    /// Non-strict inclusion: `includes(a, b) || a == b`.
    ///
    /// # Panics
    ///
    /// Panics if `descendant` does not belong to this hierarchy.
    #[must_use]
    pub fn includes_or_eq(&self, ancestor: TopicId, descendant: TopicId) -> bool {
        ancestor == descendant || self.includes(ancestor, descendant)
    }

    /// Iterates over the strict ancestors of `id` over every edge, nearest
    /// first and each once, ending at the root. Empty for the root itself.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    pub fn ancestors(&self, id: TopicId) -> std::iter::Copied<std::slice::Iter<'_, TopicId>> {
        self.nodes[id.index()].ancestors.iter().copied()
    }

    /// Depth-first traversal of `id` and every topic it includes, each
    /// once.
    #[must_use]
    pub fn descendants(&self, id: TopicId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// Iterates over every topic id in insertion order (root first).
    pub fn iter(&self) -> impl Iterator<Item = TopicId> + '_ {
        (0..self.nodes.len()).map(TopicId::from_index)
    }

    /// Validates that a foreign-looking id belongs to this hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`TopicError::UnknownTopic`] for out-of-range ids.
    pub fn check(&self, id: TopicId) -> Result<TopicId, TopicError> {
        if id.index() < self.nodes.len() {
            Ok(id)
        } else {
            Err(TopicError::UnknownTopic { id: id.0 })
        }
    }
}

impl Default for TopicHierarchy {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for TopicHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TopicHierarchy ({} topics)", self.len())?;
        for id in self.descendants(self.root()) {
            writeln!(
                f,
                "{:indent$}{} ({})",
                "",
                self.path(id),
                id,
                indent = self.depth(id) * 2
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TopicHierarchy {
        TopicHierarchy::from_paths([".a.b.c", ".a.d", ".e"]).unwrap()
    }

    #[test]
    fn new_has_root_only() {
        let h = TopicHierarchy::new();
        assert_eq!(h.len(), 1);
        assert_eq!(h.root(), TopicId::ROOT);
        assert!(!h.is_empty());
        assert_eq!(h.parent(h.root()), None);
        assert!(h.parents(h.root()).is_empty());
    }

    #[test]
    fn insert_creates_intermediates() {
        let h = sample();
        // root, .a, .a.b, .a.b.c, .a.d, .e
        assert_eq!(h.len(), 6);
        assert!(h.resolve(".a").is_some());
        assert!(h.resolve(".a.b").is_some());
        assert!(h.resolve(".missing").is_none());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut h = sample();
        let before = h.len();
        let c1 = h.insert(".a.b.c").unwrap();
        let c2 = h.insert(".a.b.c").unwrap();
        assert_eq!(c1, c2);
        assert_eq!(h.len(), before);
    }

    #[test]
    fn parent_child_links() {
        let h = sample();
        let a = h.resolve(".a").unwrap();
        let ab = h.resolve(".a.b").unwrap();
        let ad = h.resolve(".a.d").unwrap();
        assert_eq!(h.parent(ab), Some(a));
        assert_eq!(h.parent(a), Some(h.root()));
        assert!(h.children(a).contains(&ab));
        assert!(h.children(a).contains(&ad));
        assert_eq!(h.children(a).len(), 2);
    }

    #[test]
    fn depth_tracking() {
        let h = sample();
        assert_eq!(h.depth(h.root()), 0);
        assert_eq!(h.depth(h.resolve(".a").unwrap()), 1);
        assert_eq!(h.depth(h.resolve(".a.b.c").unwrap()), 3);
    }

    #[test]
    fn inclusion_properties() {
        let h = sample();
        let root = h.root();
        let a = h.resolve(".a").unwrap();
        let abc = h.resolve(".a.b.c").unwrap();
        let e = h.resolve(".e").unwrap();
        assert!(h.includes(root, a));
        assert!(h.includes(root, abc));
        assert!(h.includes(a, abc));
        assert!(!h.includes(abc, a));
        assert!(!h.includes(a, a), "strict");
        assert!(!h.includes(a, e), "unrelated");
        assert!(h.includes_or_eq(a, a));
    }

    #[test]
    fn linear_chain_shape() {
        let (h, ids) = TopicHierarchy::linear_chain(3);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], h.root());
        assert_eq!(h.parent(ids[1]), Some(ids[0]));
        assert_eq!(h.parent(ids[2]), Some(ids[1]));
        assert_eq!(h.depth(ids[2]), 2);
        assert!(h.includes(ids[0], ids[2]));
    }

    #[test]
    #[should_panic(expected = "at least the root")]
    fn linear_chain_zero_panics() {
        let _ = TopicHierarchy::linear_chain(0);
    }

    #[test]
    fn check_detects_foreign_ids() {
        let h = TopicHierarchy::new();
        assert!(h.check(TopicId::ROOT).is_ok());
        assert_eq!(
            h.check(TopicId::from_index(10)),
            Err(TopicError::UnknownTopic { id: 10 })
        );
    }

    #[test]
    fn display_renders_tree() {
        let h = sample();
        let s = h.to_string();
        assert!(s.contains(".a.b.c"));
        assert!(s.contains("6 topics"));
    }

    #[test]
    fn iter_visits_all() {
        let h = sample();
        assert_eq!(h.iter().count(), h.len());
    }

    /// `.a`, `.b` and `.a.c`, with `.b` made a second supertopic of `.a.c`.
    fn diamond() -> (TopicHierarchy, [TopicId; 3]) {
        let mut h = TopicHierarchy::from_paths([".a", ".b", ".a.c"]).unwrap();
        let [a, b, c] = [".a", ".b", ".a.c"].map(|p| h.resolve(p).unwrap());
        h.add_supertopic(c, b).unwrap();
        (h, [a, b, c])
    }

    #[test]
    fn the_root_has_no_supertopic() {
        let mut h = sample();
        let a = h.resolve(".a").unwrap();
        assert!(h.parents(h.root()).is_empty());
        assert_eq!(h.ancestors(h.root()).count(), 0);
        assert_eq!(
            h.add_supertopic(h.root(), a),
            Err(TopicError::WouldCycle { id: 0 })
        );
    }

    #[test]
    fn path_parent_is_the_first_supertopic() {
        let (h, [a, b, c]) = diamond();
        assert_eq!(h.parents(a), [h.root()]);
        assert_eq!(h.parents(c), [a, b]);
        assert_eq!(h.parent(c), Some(a), "parent follows the path");
        assert_eq!(h.depth(c), 2, "depth follows the path");
        assert_eq!(h.path(c).as_str(), ".a.c");
    }

    #[test]
    fn diamond_inclusion() {
        let (h, [a, b, c]) = diamond();
        assert!(h.includes(a, c));
        assert!(h.includes(b, c));
        assert!(h.includes(h.root(), c));
        assert!(!h.includes(c, a));
        assert!(!h.includes(a, b));
        assert!(h.children(b).contains(&c));
    }

    #[test]
    fn cycle_rejected() {
        let mut h = sample();
        let a = h.resolve(".a").unwrap();
        let ab = h.resolve(".a.b").unwrap();
        assert!(matches!(
            h.add_supertopic(a, ab),
            Err(TopicError::WouldCycle { .. })
        ));
        assert!(matches!(
            h.add_supertopic(a, a),
            Err(TopicError::WouldCycle { .. })
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut h, [a, b, c]) = diamond();
        for parent in [a, b] {
            assert!(matches!(
                h.add_supertopic(c, parent),
                Err(TopicError::DuplicateEdge { .. })
            ));
        }
    }

    #[test]
    fn a_rejected_edge_changes_nothing() {
        let (mut h, [a, b, c]) = diamond();
        let before = h.to_string();
        let cone: Vec<Vec<TopicId>> = h.iter().map(|t| h.ancestors(t).collect()).collect();
        assert!(h.add_supertopic(c, b).is_err());
        assert!(h.add_supertopic(a, c).is_err());
        assert_eq!(h.parents(c), [a, b]);
        assert_eq!(h.children(b), [c]);
        assert_eq!(h.to_string(), before);
        let after: Vec<Vec<TopicId>> = h.iter().map(|t| h.ancestors(t).collect()).collect();
        assert_eq!(after, cone);
    }

    #[test]
    fn foreign_ids_rejected() {
        let mut h = sample();
        let foreign = TopicId::from_index(99);
        for (child, parent) in [(foreign, h.root()), (h.resolve(".e").unwrap(), foreign)] {
            assert_eq!(
                h.add_supertopic(child, parent),
                Err(TopicError::UnknownTopic { id: 99 })
            );
        }
    }

    #[test]
    fn ancestors_deduplicated() {
        let (h, [a, b, c]) = diamond();
        // Nearest first; the root, above both, only once.
        assert_eq!(h.ancestors(c).collect::<Vec<_>>(), [a, b, h.root()]);
    }

    #[test]
    fn extra_supertopic_edge() {
        let mut h = TopicHierarchy::from_paths([".a.c.d", ".b"]).unwrap();
        let [b, c, d] = [".b", ".a.c", ".a.c.d"].map(|p| h.resolve(p).unwrap());
        assert!(!h.includes(b, c));
        h.add_supertopic(c, b).unwrap();
        assert!(h.includes(b, c));
        assert!(h.includes(b, d), "the topics below `c` gain `b` too");
        assert_eq!(h.parents(c).len(), 2);
        assert_eq!(h.parents(d).len(), 1);
    }

    #[test]
    fn descendants_of_a_diamond_visit_each_topic_once() {
        let (h, [a, b, c]) = diamond();
        let all: Vec<TopicId> = h.descendants(h.root()).collect();
        assert_eq!(all, [h.root(), a, c, b]);
        assert_eq!(h.descendants(b).collect::<Vec<_>>(), [b, c]);
    }
}
