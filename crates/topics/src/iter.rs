use crate::{TopicHierarchy, TopicId};

/// Depth-first (pre-order) iterator over a topic and every topic it
/// includes, each once even where several edges lead to it.
///
/// Produced by [`TopicHierarchy::descendants`].
#[derive(Debug, Clone)]
pub struct Descendants<'a> {
    hierarchy: &'a TopicHierarchy,
    stack: Vec<TopicId>,
    visited: Vec<bool>,
}

impl<'a> Descendants<'a> {
    pub(crate) fn new(hierarchy: &'a TopicHierarchy, start: TopicId) -> Self {
        Descendants {
            hierarchy,
            stack: vec![start],
            visited: vec![false; hierarchy.len()],
        }
    }
}

impl Iterator for Descendants<'_> {
    type Item = TopicId;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let current = self.stack.pop()?;
            if std::mem::replace(&mut self.visited[current.index()], true) {
                continue;
            }
            // Push children in reverse so the first child is visited first.
            self.stack
                .extend(self.hierarchy.children(current).iter().rev());
            return Some(current);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::TopicHierarchy;

    fn sample() -> TopicHierarchy {
        // root ── a ── b ── c
        //      │     └─ d
        //      └─ e
        TopicHierarchy::from_paths([".a.b.c", ".a.d", ".e"]).unwrap()
    }

    #[test]
    fn ancestors_of_leaf() {
        let h = sample();
        let abc = h.resolve(".a.b.c").unwrap();
        let names: Vec<String> = h.ancestors(abc).map(|t| h.path(t).to_string()).collect();
        assert_eq!(names, vec![".a.b", ".a", "."]);
    }

    #[test]
    fn ancestors_of_root_is_empty() {
        let h = sample();
        assert_eq!(h.ancestors(h.root()).count(), 0);
    }

    #[test]
    fn descendants_preorder() {
        let h = sample();
        let names: Vec<String> = h
            .descendants(h.root())
            .map(|t| h.path(t).to_string())
            .collect();
        assert_eq!(names, vec![".", ".a", ".a.b", ".a.b.c", ".a.d", ".e"]);
    }

    #[test]
    fn descendants_of_subtree() {
        let h = sample();
        let a = h.resolve(".a").unwrap();
        let names: Vec<String> = h.descendants(a).map(|t| h.path(t).to_string()).collect();
        assert_eq!(names, vec![".a", ".a.b", ".a.b.c", ".a.d"]);
    }
}
