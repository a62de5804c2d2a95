use std::fmt;

/// A cheap, copyable handle identifying a topic inside a
/// [`TopicHierarchy`](crate::TopicHierarchy).
///
/// Ids are dense indices assigned in insertion order; the root topic is
/// always [`TopicId::ROOT`]. Ids are only meaningful relative to the
/// hierarchy (or DAG) that produced them.
///
/// ```
/// use da_topics::{TopicHierarchy, TopicId};
/// let h = TopicHierarchy::new();
/// assert_eq!(h.root(), TopicId::ROOT);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(pub(crate) u32);

impl TopicId {
    /// The root topic `.` — present in every hierarchy, includes all topics.
    pub const ROOT: TopicId = TopicId(0);

    /// Returns the raw dense index of this id.
    ///
    /// Useful for indexing side tables that parallel a hierarchy's topics.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index previously obtained via
    /// [`TopicId::index`].
    ///
    /// The caller is responsible for only using indices that came from the
    /// same hierarchy; foreign indices are detected (as
    /// [`TopicError::UnknownTopic`](crate::TopicError::UnknownTopic)) by
    /// hierarchy methods, not here.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TopicId(u32::try_from(index).expect("topic index exceeds u32::MAX"))
    }

    /// True if this is the root topic id.
    #[must_use]
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_index_zero() {
        assert_eq!(TopicId::ROOT.index(), 0);
        assert!(TopicId::ROOT.is_root());
        assert!(!TopicId::from_index(3).is_root());
    }

    #[test]
    fn index_roundtrip() {
        for i in [0usize, 1, 17, 4096] {
            assert_eq!(TopicId::from_index(i).index(), i);
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(TopicId::ROOT.to_string(), "T0");
        assert_eq!(TopicId::from_index(42).to_string(), "T42");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(TopicId::from_index(1) < TopicId::from_index(2));
    }
}
