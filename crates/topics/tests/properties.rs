//! Property-based tests for the topic hierarchy substrate.

use da_tape::{check, prop_assert, prop_assert_eq, Tape};
use da_topics::{TopicHierarchy, TopicPath};

/// The characters a path segment may hold; the first 26 may also start
/// one.
const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";

/// The word of the characters at `indices` into [`CHARS`].
fn spell(indices: impl IntoIterator<Item = usize>) -> String {
    indices.into_iter().map(|i| char::from(CHARS[i])).collect()
}

/// A lowercase letter followed by up to six segment characters.
fn segment(t: &mut Tape) -> String {
    let first = t.range(0..26usize);
    let rest = t.vec(0..=6, |t| t.range(0..CHARS.len()));
    spell(std::iter::once(first).chain(rest))
}

/// One to four lowercase letters.
fn letters(t: &mut Tape) -> String {
    spell(t.vec(1..=4, |t| t.range(0..26usize)))
}

/// A valid topic path string up to 5 levels deep.
fn topic_path(t: &mut Tape) -> String {
    let segments = t.vec(0..5, segment);
    if segments.is_empty() {
        ".".to_owned()
    } else {
        format!(".{}", segments.join("."))
    }
}

#[test]
fn parse_roundtrips() {
    check("parse_roundtrips", |t| {
        let path = topic_path(t);
        let parsed = TopicPath::parse(&path).expect("topic_path draws valid paths");
        prop_assert_eq!(parsed.as_str(), path.as_str());
        let reparsed = TopicPath::parse(parsed.as_str()).unwrap();
        prop_assert_eq!(parsed, reparsed);
        Ok(())
    });
}

#[test]
fn depth_equals_segment_count() {
    check("depth_equals_segment_count", |t| {
        let path = topic_path(t);
        let parsed = TopicPath::parse(&path).unwrap();
        prop_assert_eq!(parsed.depth(), parsed.segments().count());
        Ok(())
    });
}

#[test]
fn parent_reduces_depth_by_one() {
    check("parent_reduces_depth_by_one", |t| {
        let path = topic_path(t);
        let parsed = TopicPath::parse(&path).unwrap();
        if let Some(parent) = parsed.parent() {
            prop_assert_eq!(parent.depth() + 1, parsed.depth());
            prop_assert!(parent.includes(&parsed));
        } else {
            prop_assert!(parsed.is_root());
        }
        Ok(())
    });
}

#[test]
fn inclusion_is_strict_and_antisymmetric() {
    check("inclusion_is_strict_and_antisymmetric", |t| {
        let a = topic_path(t);
        let b = topic_path(t);
        let pa = TopicPath::parse(&a).unwrap();
        let pb = TopicPath::parse(&b).unwrap();
        // Irreflexive.
        prop_assert!(!pa.includes(&pa));
        // Antisymmetric.
        if pa.includes(&pb) {
            prop_assert!(!pb.includes(&pa));
        }
        Ok(())
    });
}

#[test]
fn inclusion_is_transitive() {
    check("inclusion_is_transitive", |t| {
        let base = topic_path(t);
        let s1 = letters(t);
        let s2 = letters(t);
        let a = TopicPath::parse(&base).unwrap();
        let b = a.child(&s1).unwrap();
        let c = b.child(&s2).unwrap();
        prop_assert!(a.includes(&b));
        prop_assert!(b.includes(&c));
        prop_assert!(a.includes(&c));
        Ok(())
    });
}

#[test]
fn hierarchy_matches_path_semantics() {
    check("hierarchy_matches_path_semantics", |t| {
        let paths = t.vec(1..12, topic_path);
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
                    h.path(x),
                    h.path(y)
                );
            }
        }
        Ok(())
    });
}

#[test]
fn ancestors_are_exactly_the_includers() {
    check("ancestors_are_exactly_the_includers", |t| {
        let paths = t.vec(1..10, topic_path);
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
        Ok(())
    });
}

#[test]
fn descendants_count_matches_inclusion() {
    check("descendants_count_matches_inclusion", |t| {
        let paths = t.vec(1..10, topic_path);
        let h = TopicHierarchy::from_paths(&paths).unwrap();
        for id in h.iter() {
            let via_iter = h.descendants(id).count();
            let via_inclusion = h.iter().filter(|&x| h.includes_or_eq(id, x)).count();
            prop_assert_eq!(via_iter, via_inclusion);
        }
        Ok(())
    });
}

mod dag_properties {
    use da_tape::{check, prop_assert, prop_assert_eq, Tape};
    use da_topics::{TopicHierarchy, TopicId};
    use std::collections::HashSet;

    /// Draws a random topic DAG: up to 13 topics, each a path child of a
    /// topic created before it and given up to two more supertopics from
    /// those (acyclic by construction), then up to eight `add_supertopic`
    /// calls between any two topics, whatever they return — a call that
    /// would close a cycle or repeat an edge must fail and change nothing,
    /// and one that succeeds may widen the cone of topics below it.
    fn arb_dag(t: &mut Tape) -> TopicHierarchy {
        let mut h = TopicHierarchy::new();
        for i in 0..t.range(0..14usize) {
            let ids: Vec<TopicId> = h.iter().collect();
            let parents = t.vec(1..4, |t| t.pick(&ids));
            let path = h.path(parents[0]).child(&format!("t{i}")).unwrap();
            let id = h.insert_path(&path).unwrap();
            for &parent in &parents[1..] {
                if !h.parents(id).contains(&parent) {
                    h.add_supertopic(id, parent).expect("an earlier topic");
                }
            }
        }
        let ids: Vec<TopicId> = h.iter().collect();
        for _ in 0..t.range(0..8usize) {
            let _ = h.add_supertopic(t.pick(&ids), t.pick(&ids));
        }
        h
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

    /// Inclusion is a strict partial order: irreflexive, antisymmetric,
    /// transitive; the root includes every other topic.
    #[test]
    fn dag_inclusion_partial_order() {
        check("dag_inclusion_partial_order", |t| {
            let h = arb_dag(t);
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
            Ok(())
        });
    }

    /// `ancestors` and `includes` agree with reachability over the
    /// parent edges, `ancestors` lists each topic once, nearest first,
    /// and parents/children edges are mutually consistent.
    #[test]
    fn dag_ancestors_and_edges_consistent() {
        check("dag_ancestors_and_edges_consistent", |t| {
            let h = arb_dag(t);
            for id in h.iter() {
                let ancestors: Vec<TopicId> = h.ancestors(id).collect();
                let reachable = reachable(&h, id);
                prop_assert_eq!(ancestors.len(), reachable.len(), "each ancestor once");
                for other in h.iter() {
                    prop_assert_eq!(ancestors.contains(&other), reachable.contains(&other));
                    prop_assert_eq!(h.includes(other, id), reachable.contains(&other));
                }
                prop_assert_eq!(
                    &ancestors[..h.parents(id).len()],
                    h.parents(id),
                    "nearest first"
                );
                for &p in h.parents(id) {
                    prop_assert!(h.children(p).contains(&id));
                }
                for &c in h.children(id) {
                    prop_assert!(h.parents(c).contains(&id));
                }
            }
            Ok(())
        });
    }

    /// Adding a cycle-creating edge is rejected: when `a` includes `b`
    /// (i.e. `b` is a descendant of `a`), making `b` a supertopic of
    /// `a` would close a cycle and must fail; the hierarchy is
    /// unchanged.
    #[test]
    fn dag_rejects_cycles() {
        check("dag_rejects_cycles", |t| {
            let h = arb_dag(t);
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
            Ok(())
        });
    }

    /// `descendants` visits each topic a topic includes once, however
    /// many edges lead to it.
    #[test]
    fn dag_descendants_count_matches_inclusion() {
        check("dag_descendants_count_matches_inclusion", |t| {
            let h = arb_dag(t);
            for id in h.iter() {
                let via_iter: Vec<TopicId> = h.descendants(id).collect();
                let distinct: HashSet<TopicId> = via_iter.iter().copied().collect();
                prop_assert_eq!(distinct.len(), via_iter.len(), "each once");
                let via_inclusion = h.iter().filter(|&x| h.includes_or_eq(id, x)).count();
                prop_assert_eq!(via_iter.len(), via_inclusion);
            }
            Ok(())
        });
    }
}
