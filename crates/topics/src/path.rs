use crate::TopicError;
use std::fmt;
use std::str::FromStr;

/// A validated, dotted topic name such as `.dsn04.reviewers`.
///
/// Grammar:
///
/// * the root topic is the single dot `.` (zero segments);
/// * every other path is a leading dot followed by one or more dot-separated
///   non-empty segments over the alphabet `[A-Za-z0-9_-]`.
///
/// `TopicPath` stores the canonical string plus segment boundaries, so both
/// string access and segment iteration are cheap.
///
/// ```
/// use da_topics::TopicPath;
///
/// # fn main() -> Result<(), da_topics::TopicError> {
/// let p: TopicPath = ".dsn04.reviewers".parse()?;
/// assert_eq!(p.segments().collect::<Vec<_>>(), ["dsn04", "reviewers"]);
/// assert_eq!(p.parent().unwrap().as_str(), ".dsn04");
/// assert_eq!(p.depth(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicPath {
    canonical: String,
}

impl TopicPath {
    /// The root topic path `.`.
    #[must_use]
    pub fn root() -> Self {
        TopicPath {
            canonical: ".".to_owned(),
        }
    }

    /// Parses a dotted topic path.
    ///
    /// # Errors
    ///
    /// Returns [`TopicError::MissingLeadingDot`] when the string does not
    /// start with `.`, [`TopicError::EmptySegment`] for `..` runs or a
    /// trailing dot, and [`TopicError::InvalidCharacter`] for characters
    /// outside `[A-Za-z0-9_-]`.
    pub fn parse(input: &str) -> Result<Self, TopicError> {
        if !input.starts_with('.') {
            return Err(TopicError::MissingLeadingDot);
        }
        if input == "." {
            return Ok(Self::root());
        }
        for (index, segment) in input[1..].split('.').enumerate() {
            if segment.is_empty() {
                return Err(TopicError::EmptySegment { index });
            }
            if let Some(character) = segment
                .chars()
                .find(|c| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-'))
            {
                return Err(TopicError::InvalidCharacter {
                    character,
                    segment: index,
                });
            }
        }
        Ok(TopicPath {
            canonical: input.to_owned(),
        })
    }

    /// The canonical string form (`.` for root, `.a.b` otherwise).
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.canonical
    }

    /// True for the root topic `.`.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.canonical == "."
    }

    /// Number of segments; the root has depth 0, `.a.b` has depth 2.
    #[must_use]
    pub fn depth(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.canonical.bytes().filter(|b| *b == b'.').count()
        }
    }

    /// Iterates over the path's segments, outermost first.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        let body = if self.is_root() {
            ""
        } else {
            &self.canonical[1..]
        };
        body.split('.').filter(|s| !s.is_empty())
    }

    /// The direct supertopic path, or `None` for the root.
    ///
    /// `.a.b` → `.a`; `.a` → `.` (the root).
    #[must_use]
    pub fn parent(&self) -> Option<TopicPath> {
        if self.is_root() {
            return None;
        }
        let cut = self
            .canonical
            .rfind('.')
            .expect("non-root topic paths contain at least one dot");
        if cut == 0 {
            Some(TopicPath::root())
        } else {
            Some(TopicPath {
                canonical: self.canonical[..cut].to_owned(),
            })
        }
    }

    /// Appends one segment, returning the child path.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`TopicPath::parse`] when `segment` is
    /// empty or contains invalid characters.
    pub fn child(&self, segment: &str) -> Result<TopicPath, TopicError> {
        if segment.is_empty() {
            return Err(TopicError::EmptySegment {
                index: self.depth(),
            });
        }
        if let Some(character) = segment
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-'))
        {
            return Err(TopicError::InvalidCharacter {
                character,
                segment: self.depth(),
            });
        }
        let canonical = if self.is_root() {
            format!(".{segment}")
        } else {
            format!("{}.{segment}", self.canonical)
        };
        Ok(TopicPath { canonical })
    }

    /// True when `self` is a strict supertopic of `other` — i.e. `self`
    /// *includes* `other` in the paper's terminology.
    ///
    /// The root includes every other topic; no topic includes itself.
    #[must_use]
    pub fn includes(&self, other: &TopicPath) -> bool {
        if self == other {
            return false;
        }
        if self.is_root() {
            return true;
        }
        other.canonical.starts_with(&self.canonical)
            && other.canonical.as_bytes().get(self.canonical.len()) == Some(&b'.')
    }
}

impl FromStr for TopicPath {
    type Err = TopicError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopicPath::parse(s)
    }
}

impl fmt::Display for TopicPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical)
    }
}

impl TryFrom<String> for TopicPath {
    type Error = TopicError;

    fn try_from(value: String) -> Result<Self, Self::Error> {
        TopicPath::parse(&value)
    }
}

impl From<TopicPath> for String {
    fn from(value: TopicPath) -> Self {
        value.canonical
    }
}

impl AsRef<str> for TopicPath {
    fn as_ref(&self) -> &str {
        &self.canonical
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_root() {
        let p = TopicPath::parse(".").unwrap();
        assert!(p.is_root());
        assert_eq!(p.depth(), 0);
        assert_eq!(p.segments().count(), 0);
        assert_eq!(p.parent(), None);
    }

    #[test]
    fn parses_nested() {
        let p = TopicPath::parse(".dsn04.reviewers").unwrap();
        assert_eq!(p.depth(), 2);
        assert_eq!(p.segments().last(), Some("reviewers"));
        assert_eq!(p.to_string(), ".dsn04.reviewers");
    }

    #[test]
    fn rejects_missing_dot() {
        assert_eq!(TopicPath::parse("abc"), Err(TopicError::MissingLeadingDot));
        assert_eq!(TopicPath::parse(""), Err(TopicError::MissingLeadingDot));
    }

    #[test]
    fn rejects_empty_segments() {
        assert_eq!(
            TopicPath::parse(".a..b"),
            Err(TopicError::EmptySegment { index: 1 })
        );
        assert_eq!(
            TopicPath::parse(".a."),
            Err(TopicError::EmptySegment { index: 1 })
        );
        assert_eq!(
            TopicPath::parse(".."),
            Err(TopicError::EmptySegment { index: 0 })
        );
    }

    #[test]
    fn rejects_invalid_characters() {
        assert_eq!(
            TopicPath::parse(".a.b!c"),
            Err(TopicError::InvalidCharacter {
                character: '!',
                segment: 1
            })
        );
        assert!(TopicPath::parse(".ok-topic_1").is_ok());
    }

    #[test]
    fn parent_chain() {
        let p = TopicPath::parse(".a.b.c").unwrap();
        let b = p.parent().unwrap();
        assert_eq!(b.as_str(), ".a.b");
        let a = b.parent().unwrap();
        assert_eq!(a.as_str(), ".a");
        let root = a.parent().unwrap();
        assert!(root.is_root());
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn child_construction() {
        let root = TopicPath::root();
        let a = root.child("a").unwrap();
        assert_eq!(a.as_str(), ".a");
        let ab = a.child("b").unwrap();
        assert_eq!(ab.as_str(), ".a.b");
        assert!(a.child("").is_err());
        assert!(a.child("x.y").is_err());
    }

    #[test]
    fn inclusion_is_strict_prefix() {
        let root = TopicPath::root();
        let a = TopicPath::parse(".a").unwrap();
        let ab = TopicPath::parse(".a.b").unwrap();
        let abc = TopicPath::parse(".a.bc").unwrap();
        assert!(root.includes(&a));
        assert!(root.includes(&ab));
        assert!(a.includes(&ab));
        assert!(!a.includes(&a), "inclusion is strict");
        assert!(!ab.includes(&a), "inclusion is not symmetric");
        assert!(!a.includes(&abc) || abc.as_str().starts_with(".a."));
        // `.a` does not include `.ab` even though it is a string prefix.
        let ab2 = TopicPath::parse(".ab").unwrap();
        assert!(!a.includes(&ab2));
    }

    #[test]
    fn fromstr_and_conversions() {
        let p: TopicPath = ".x".parse().unwrap();
        assert_eq!(String::from(p.clone()), ".x");
        assert_eq!(TopicPath::try_from(".x".to_owned()).unwrap(), p);
        assert_eq!(p.as_ref(), ".x");
    }
}
