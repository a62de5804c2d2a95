use crate::iter::{Ancestors, BreadthFirst, Descendants};
use crate::{TopicError, TopicId, TopicPath};
use std::collections::HashMap;
use std::fmt;

/// Metadata about one topic in a [`TopicHierarchy`].
#[derive(Debug, Clone)]
pub struct TopicInfo {
    path: TopicPath,
    parent: Option<TopicId>,
    children: Vec<TopicId>,
    depth: u32,
}

impl TopicInfo {
    /// The canonical dotted path of this topic.
    #[must_use]
    pub fn path(&self) -> &TopicPath {
        &self.path
    }

    /// The direct supertopic, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<TopicId> {
        self.parent
    }

    /// Direct subtopics, in insertion order.
    #[must_use]
    pub fn children(&self) -> &[TopicId] {
        &self.children
    }

    /// Distance from the root (root = 0).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// A single-parent topic tree with interned ids.
///
/// This is the "hierarchical disposition of topics" the paper assumes is
/// available in every topic-based publish/subscribe system. All navigation
/// (parent, children, inclusion, ancestors) is O(1) or output-sensitive.
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
    nodes: Vec<TopicInfo>,
    index: HashMap<String, TopicId>,
}

impl TopicHierarchy {
    /// Creates a hierarchy containing only the root topic `.`.
    #[must_use]
    pub fn new() -> Self {
        let root = TopicInfo {
            path: TopicPath::root(),
            parent: None,
            children: Vec::new(),
            depth: 0,
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
        let depth = self.nodes[parent_id.index()].depth + 1;
        self.nodes.push(TopicInfo {
            path: path.clone(),
            parent: Some(parent_id),
            children: Vec::new(),
            depth,
        });
        self.nodes[parent_id.index()].children.push(id);
        self.index.insert(path.as_str().to_owned(), id);
        Ok(id)
    }

    /// Looks up a topic id by dotted path string.
    #[must_use]
    pub fn resolve(&self, path: &str) -> Option<TopicId> {
        self.index.get(path).copied()
    }

    /// Returns the metadata for `id`, or `None` for foreign ids.
    #[must_use]
    pub fn info(&self, id: TopicId) -> Option<&TopicInfo> {
        self.nodes.get(id.index())
    }

    /// The canonical path of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn path(&self, id: TopicId) -> &TopicPath {
        self.nodes[id.index()].path()
    }

    /// The direct supertopic (`super(Ti)` in the paper), or `None` for root.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn parent(&self, id: TopicId) -> Option<TopicId> {
        self.nodes[id.index()].parent()
    }

    /// Direct subtopics of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn children(&self, id: TopicId) -> &[TopicId] {
        self.nodes[id.index()].children()
    }

    /// Distance of `id` from the root.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this hierarchy.
    #[must_use]
    pub fn depth(&self, id: TopicId) -> usize {
        self.nodes[id.index()].depth() as usize
    }

    /// True when `ancestor` strictly includes `descendant` — i.e. `ancestor`
    /// is a (direct or transitive) supertopic of `descendant`.
    ///
    /// Inclusion is the partial order the paper routes events along: an
    /// event of topic `Ti` is also an event of every topic including `Ti`.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this hierarchy.
    #[must_use]
    pub fn includes(&self, ancestor: TopicId, descendant: TopicId) -> bool {
        if ancestor == descendant {
            return false;
        }
        let mut cursor = self.parent(descendant);
        while let Some(t) = cursor {
            if t == ancestor {
                return true;
            }
            cursor = self.parent(t);
        }
        false
    }

    /// Non-strict inclusion: `includes(a, b) || a == b`.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this hierarchy.
    #[must_use]
    pub fn includes_or_eq(&self, ancestor: TopicId, descendant: TopicId) -> bool {
        ancestor == descendant || self.includes(ancestor, descendant)
    }

    /// Iterates over the strict ancestors of `id`, nearest first, ending at
    /// the root. Empty for the root itself.
    #[must_use]
    pub fn ancestors(&self, id: TopicId) -> Ancestors<'_> {
        Ancestors::new(self, id)
    }

    /// Depth-first traversal of the subtree rooted at `id` (inclusive).
    #[must_use]
    pub fn descendants(&self, id: TopicId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// Breadth-first traversal of the subtree rooted at `id` (inclusive).
    #[must_use]
    pub fn breadth_first(&self, id: TopicId) -> BreadthFirst<'_> {
        BreadthFirst::new(self, id)
    }

    /// Iterates over every topic id in insertion order (root first).
    pub fn iter(&self) -> impl Iterator<Item = TopicId> + '_ {
        (0..self.nodes.len()).map(TopicId::from_index)
    }

    /// Lowest common ancestor of `a` and `b` under non-strict inclusion.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this hierarchy.
    #[must_use]
    pub fn lowest_common_ancestor(&self, a: TopicId, b: TopicId) -> TopicId {
        let mut pa = a;
        let mut pb = b;
        while self.depth(pa) > self.depth(pb) {
            pa = self.parent(pa).expect("deeper node has a parent");
        }
        while self.depth(pb) > self.depth(pa) {
            pb = self.parent(pb).expect("deeper node has a parent");
        }
        while pa != pb {
            pa = self.parent(pa).expect("non-root while unequal");
            pb = self.parent(pb).expect("non-root while unequal");
        }
        pa
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

    /// The maximal depth over all topics — `t` in the paper's analysis.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.depth() as usize)
            .max()
            .unwrap_or(0)
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
            let info = &self.nodes[id.index()];
            writeln!(
                f,
                "{:indent$}{} ({})",
                "",
                info.path(),
                id,
                indent = info.depth() as usize * 2
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
        assert_eq!(h.max_depth(), 0);
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
        assert_eq!(h.max_depth(), 3);
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
    fn lca() {
        let h = sample();
        let abc = h.resolve(".a.b.c").unwrap();
        let ad = h.resolve(".a.d").unwrap();
        let a = h.resolve(".a").unwrap();
        let e = h.resolve(".e").unwrap();
        assert_eq!(h.lowest_common_ancestor(abc, ad), a);
        assert_eq!(h.lowest_common_ancestor(abc, e), h.root());
        assert_eq!(h.lowest_common_ancestor(a, abc), a);
        assert_eq!(h.lowest_common_ancestor(a, a), a);
    }

    #[test]
    fn linear_chain_shape() {
        let (h, ids) = TopicHierarchy::linear_chain(3);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], h.root());
        assert_eq!(h.parent(ids[1]), Some(ids[0]));
        assert_eq!(h.parent(ids[2]), Some(ids[1]));
        assert_eq!(h.max_depth(), 2);
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
}
