//! # da-topics — hierarchical topic substrate
//!
//! Topic-based publish/subscribe systems organise event topics in a
//! hierarchy, e.g. `.dsn04.reviewers` where `.dsn04` is the direct
//! supertopic of `.dsn04.reviewers` and `.` (the *root topic*) includes
//! everything. The daMulticast paper (Baehni, Eugster, Guerraoui, DSN 2004)
//! exploits exactly this structure — *data-awareness* — to build dynamic
//! process groups and route events bottom-up along inclusion relations.
//!
//! This crate provides the hierarchy machinery everything else builds on:
//!
//! * [`TopicPath`] — a validated, dotted topic name (`.a.b.c`).
//! * [`TopicId`] — a cheap interned handle into a [`TopicHierarchy`].
//! * [`TopicHierarchy`] — the topic tree of dotted paths, with O(1)
//!   parent lookup and inclusion queries. A topic may gain more direct
//!   supertopics ([`TopicHierarchy::add_supertopic`]), the multiple
//!   inheritance of the paper's concluding remarks (Sec. VIII); inclusion
//!   then follows every edge.
//!
//! ## Example
//!
//! ```
//! use da_topics::TopicHierarchy;
//!
//! # fn main() -> Result<(), da_topics::TopicError> {
//! let mut h = TopicHierarchy::new();
//! let reviewers = h.insert(".dsn04.reviewers")?;
//! let dsn04 = h.resolve(".dsn04").expect("intermediate topic was created");
//! assert_eq!(h.parent(reviewers), Some(dsn04));
//! assert!(h.includes(dsn04, reviewers));
//! assert!(h.includes(h.root(), reviewers));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hierarchy;
mod id;
mod iter;
mod path;

pub use error::TopicError;
pub use hierarchy::TopicHierarchy;
pub use id::TopicId;
pub use iter::Descendants;
pub use path::TopicPath;
