use da_core::{ProcessId, WireSize};

/// Messages of the flat gossip membership protocol.
///
/// These are embedded by higher layers (daMulticast wraps them in its own
/// envelope so membership digests can piggyback supertopic-table entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipMsg {
    /// A joining process announces itself to a contact.
    JoinRequest,
    /// A contact answers a join with a sample of its view.
    JoinReply {
        /// Random sample of the replier's view (plus itself implicitly).
        sample: Vec<ProcessId>,
    },
    /// Periodic digest gossip: a random sample of the sender's view.
    Digest {
        /// Random sample of the sender's view.
        sample: Vec<ProcessId>,
    },
}

impl WireSize for MembershipMsg {
    fn wire_size(&self) -> usize {
        // 1-byte discriminant + payload.
        match self {
            MembershipMsg::JoinRequest => 1,
            MembershipMsg::JoinReply { sample } | MembershipMsg::Digest { sample } => {
                1 + sample.wire_size()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(MembershipMsg::JoinRequest.wire_size(), 1);
        let d = MembershipMsg::Digest {
            sample: vec![ProcessId(1), ProcessId(2)],
        };
        assert_eq!(d.wire_size(), 1 + 4 + 8);
    }
}
