//! Property-based tests for the topic hierarchy substrate.

use da_topics::{TopicHierarchy, TopicPath};
use proptest::prelude::*;

/// The characters a path segment may hold; the first 26 may also start
/// one.
const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";

/// The word of the characters at `indices` into [`CHARS`].
fn spell(indices: impl IntoIterator<Item = usize>) -> String {
    indices.into_iter().map(|i| char::from(CHARS[i])).collect()
}

/// A lowercase letter followed by up to six segment characters.
fn segment() -> impl Strategy<Value = String> {
    (0..26usize, prop::collection::vec(0..CHARS.len(), 0..=6))
        .prop_map(|(first, rest)| spell(std::iter::once(first).chain(rest)))
}

/// One to four lowercase letters.
fn letters() -> impl Strategy<Value = String> {
    prop::collection::vec(0..26usize, 1..=4).prop_map(spell)
}

/// Strategy producing valid topic path strings up to 5 levels deep.
fn path_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(segment(), 0..5).prop_map(|segments| {
        if segments.is_empty() {
            ".".to_owned()
        } else {
            format!(".{}", segments.join("."))
        }
    })
}

proptest! {
    #[test]
    fn parse_roundtrips(path in path_strategy()) {
        let parsed = TopicPath::parse(&path).expect("strategy produces valid paths");
        prop_assert_eq!(parsed.as_str(), path.as_str());
        let reparsed = TopicPath::parse(parsed.as_str()).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    #[test]
    fn depth_equals_segment_count(path in path_strategy()) {
        let parsed = TopicPath::parse(&path).unwrap();
        prop_assert_eq!(parsed.depth(), parsed.segments().count());
    }

    #[test]
    fn parent_reduces_depth_by_one(path in path_strategy()) {
        let parsed = TopicPath::parse(&path).unwrap();
        if let Some(parent) = parsed.parent() {
            prop_assert_eq!(parent.depth() + 1, parsed.depth());
            prop_assert!(parent.includes(&parsed));
        } else {
            prop_assert!(parsed.is_root());
        }
    }

    #[test]
    fn inclusion_is_strict_and_antisymmetric(a in path_strategy(), b in path_strategy()) {
        let pa = TopicPath::parse(&a).unwrap();
        let pb = TopicPath::parse(&b).unwrap();
        // Irreflexive.
        prop_assert!(!pa.includes(&pa));
        // Antisymmetric.
        if pa.includes(&pb) {
            prop_assert!(!pb.includes(&pa));
        }
    }

    #[test]
    fn inclusion_is_transitive(base in path_strategy(), s1 in letters(), s2 in letters()) {
        let a = TopicPath::parse(&base).unwrap();
        let b = a.child(&s1).unwrap();
        let c = b.child(&s2).unwrap();
        prop_assert!(a.includes(&b));
        prop_assert!(b.includes(&c));
        prop_assert!(a.includes(&c));
    }

    #[test]
    fn hierarchy_matches_path_semantics(paths in prop::collection::vec(path_strategy(), 1..12)) {
        let h = TopicHierarchy::from_paths(&paths).unwrap();
        // Every inserted path resolves and its structural relations mirror
        // the string-level relations.
        for p in &paths {
            let id = h.resolve(p).expect("inserted paths resolve");
            let parsed = TopicPath::parse(p).unwrap();
            prop_assert_eq!(h.depth(id), parsed.depth());
            match parsed.parent() {
                None => prop_assert_eq!(h.parent(id), None),
                Some(pp) => {
                    let pid = h.resolve(pp.as_str()).expect("parents are auto-created");
                    prop_assert_eq!(h.parent(id), Some(pid));
                }
            }
        }
        // Pairwise inclusion agreement between hierarchy ids and paths.
        let ids: Vec<_> = h.iter().collect();
        for &x in &ids {
            for &y in &ids {
                prop_assert_eq!(
                    h.includes(x, y),
                    h.path(x).includes(h.path(y)),
                    "hierarchy and path inclusion disagree for {} vs {}",
                    h.path(x), h.path(y)
                );
            }
        }
    }

    #[test]
    fn ancestors_are_exactly_the_includers(paths in prop::collection::vec(path_strategy(), 1..10)) {
        let h = TopicHierarchy::from_paths(&paths).unwrap();
        for id in h.iter() {
            let ancestors: Vec<_> = h.ancestors(id).collect();
            for other in h.iter() {
                let is_ancestor = ancestors.contains(&other);
                prop_assert_eq!(is_ancestor, h.includes(other, id));
            }
            // Nearest-first: depths strictly decrease.
            for w in ancestors.windows(2) {
                prop_assert!(h.depth(w[0]) > h.depth(w[1]));
            }
        }
    }

    #[test]
    fn descendants_count_matches_inclusion(paths in prop::collection::vec(path_strategy(), 1..10)) {
        let h = TopicHierarchy::from_paths(&paths).unwrap();
        for id in h.iter() {
            let via_iter = h.descendants(id).count();
            let via_inclusion = h.iter().filter(|&x| h.includes_or_eq(id, x)).count();
            prop_assert_eq!(via_iter, via_inclusion);
        }
    }
}

mod dag_properties {
    use da_topics::{TopicHierarchy, TopicId};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Builds a random topic DAG: up to 13 topics, each a path child of a
    /// topic created before it and given up to two more supertopics from
    /// those (acyclic by construction), then up to eight `add_supertopic`
    /// calls between any two topics, whatever they return — a call that
    /// would close a cycle or repeat an edge must fail and change nothing,
    /// and one that succeeds may widen the cone of topics below it.
    fn arb_dag() -> impl Strategy<Value = TopicHierarchy> {
        let topics = prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 1..4),
            0..14,
        );
        let edges = prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..8,
        );
        (topics, edges).prop_map(|(topics, edges)| {
            let mut h = TopicHierarchy::new();
            for (i, parents) in topics.into_iter().enumerate() {
                let ids: Vec<TopicId> = h.iter().collect();
                let path_parent = *parents[0].get(&ids);
                let path = h.path(path_parent).child(&format!("t{i}")).unwrap();
                let id = h.insert_path(&path).unwrap();
                for ix in &parents[1..] {
                    let parent = *ix.get(&ids);
                    if !h.parents(id).contains(&parent) {
                        h.add_supertopic(id, parent).expect("an earlier topic");
                    }
                }
            }
            let ids: Vec<TopicId> = h.iter().collect();
            for (child, parent) in edges {
                let _ = h.add_supertopic(*child.get(&ids), *parent.get(&ids));
            }
            h
        })
    }

    /// The topics reachable from `id` over parent edges, found without the
    /// hierarchy's own ancestor lists.
    fn reachable(h: &TopicHierarchy, id: TopicId) -> HashSet<TopicId> {
        let mut found = HashSet::new();
        let mut stack = h.parents(id).to_vec();
        while let Some(t) = stack.pop() {
            if found.insert(t) {
                stack.extend(h.parents(t));
            }
        }
        found
    }

    proptest! {
        /// Inclusion is a strict partial order: irreflexive, antisymmetric,
        /// transitive; the root includes every other topic.
        #[test]
        fn dag_inclusion_partial_order(h in arb_dag()) {
            let ids: Vec<TopicId> = h.iter().collect();
            for &a in &ids {
                prop_assert!(!h.includes(a, a), "irreflexive");
                if a != h.root() {
                    prop_assert!(h.includes(h.root(), a), "root includes all");
                }
                for &b in &ids {
                    if h.includes(a, b) {
                        prop_assert!(!h.includes(b, a), "antisymmetric");
                        for &c in &ids {
                            if h.includes(b, c) {
                                prop_assert!(h.includes(a, c), "transitive");
                            }
                        }
                    }
                }
            }
        }

        /// `ancestors` and `includes` agree with reachability over the
        /// parent edges, `ancestors` lists each topic once, nearest first,
        /// and parents/children edges are mutually consistent.
        #[test]
        fn dag_ancestors_and_edges_consistent(h in arb_dag()) {
            for id in h.iter() {
                let ancestors: Vec<TopicId> = h.ancestors(id).collect();
                let reachable = reachable(&h, id);
                prop_assert_eq!(ancestors.len(), reachable.len(), "each ancestor once");
                for other in h.iter() {
                    prop_assert_eq!(ancestors.contains(&other), reachable.contains(&other));
                    prop_assert_eq!(h.includes(other, id), reachable.contains(&other));
                }
                prop_assert_eq!(&ancestors[..h.parents(id).len()], h.parents(id), "nearest first");
                for &p in h.parents(id) {
                    prop_assert!(h.children(p).contains(&id));
                }
                for &c in h.children(id) {
                    prop_assert!(h.parents(c).contains(&id));
                }
            }
        }

        /// Adding a cycle-creating edge is rejected: when `a` includes `b`
        /// (i.e. `b` is a descendant of `a`), making `b` a supertopic of
        /// `a` would close a cycle and must fail; the hierarchy is
        /// unchanged.
        #[test]
        fn dag_rejects_cycles(h in arb_dag()) {
            let ids: Vec<TopicId> = h.iter().collect();
            let mut h = h;
            for &a in &ids {
                for &b in &ids {
                    if a == b || h.includes(a, b) {
                        let before = h.parents(a).len();
                        prop_assert!(
                            h.add_supertopic(a, b).is_err(),
                            "cycle-creating edge accepted"
                        );
                        prop_assert_eq!(h.parents(a).len(), before);
                    }
                }
            }
        }

        /// `descendants` visits each topic a topic includes once, however
        /// many edges lead to it.
        #[test]
        fn dag_descendants_count_matches_inclusion(h in arb_dag()) {
            for id in h.iter() {
                let via_iter: Vec<TopicId> = h.descendants(id).collect();
                let distinct: HashSet<TopicId> = via_iter.iter().copied().collect();
                prop_assert_eq!(distinct.len(), via_iter.len(), "each once");
                let via_inclusion = h.iter().filter(|&x| h.includes_or_eq(id, x)).count();
                prop_assert_eq!(via_iter.len(), via_inclusion);
            }
        }
    }
}
