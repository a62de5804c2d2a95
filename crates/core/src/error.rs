use da_membership::MembershipError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the daMulticast protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DaError {
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A topic id did not belong to the protocol's hierarchy.
    UnknownTopic {
        /// Raw id of the foreign topic.
        id: u32,
    },
    /// A group needed at least one member.
    EmptyGroup {
        /// Dotted path of the empty group's topic.
        topic: String,
    },
}

impl fmt::Display for DaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaError::InvalidParameter { reason } => {
                write!(f, "invalid daMulticast parameter: {reason}")
            }
            DaError::UnknownTopic { id } => {
                write!(
                    f,
                    "topic id {id} does not belong to the protocol's hierarchy"
                )
            }
            DaError::EmptyGroup { topic } => {
                write!(f, "group for topic '{topic}' has no members")
            }
        }
    }
}

impl Error for DaError {}

/// A membership error surfaces as a parameter error, its text kept.
impl From<MembershipError> for DaError {
    fn from(e: MembershipError) -> Self {
        DaError::InvalidParameter {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = DaError::InvalidParameter {
            reason: "z must be positive".into(),
        };
        assert!(e.to_string().contains("z must be positive"));
        assert!(DaError::UnknownTopic { id: 3 }.to_string().contains('3'));
        assert!(DaError::EmptyGroup { topic: ".a".into() }
            .to_string()
            .contains(".a"));
        // A membership error converts to the parameter error built by
        // hand before, text included.
        let e = MembershipError::InvalidParameter {
            reason: "degree must be positive".into(),
        };
        let by_hand = DaError::InvalidParameter {
            reason: e.to_string(),
        };
        let converted = DaError::from(e);
        assert_eq!(converted, by_hand);
        assert_eq!(
            converted.to_string(),
            "invalid daMulticast parameter: invalid membership parameter: degree must be positive"
        );
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DaError>();
    }
}
