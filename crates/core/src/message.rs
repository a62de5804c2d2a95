//! The daMulticast wire protocol.

use crate::event::Event;
use crate::tables::SuperEntry;
use da_core::{McHash, ProcessId, WireSize};
use da_membership::MembershipMsg;
use da_topics::TopicId;
use std::hash::Hasher;

/// Messages exchanged by daMulticast processes.
///
/// Maps onto the paper's pseudo-code:
///
/// * [`DaMsg::Event`] — `SEND(e_Ti)` of the dissemination algorithm
///   (Fig. 7), both intra-group gossip and inter-group forwarding. Carries
///   the sender's group topic so receivers can account inter-group hops.
/// * [`DaMsg::ReqContact`]/[`DaMsg::AnsContact`] — the bootstrap search
///   (Fig. 4).
/// * [`DaMsg::NewProcessReq`]/[`DaMsg::NewProcessAns`] — supertable
///   refresh (`NEWPROCESS`, Fig. 6).
/// * [`DaMsg::Ping`]/[`DaMsg::Pong`] — the liveness `CHECK` of Fig. 6
///   (footnote 7: "the detection of alive processes is done via
///   timeouts").
/// * [`DaMsg::Membership`] — underlying membership traffic, piggybacking a
///   supertable sample (Sec. V-A.2a).
#[derive(Debug, Clone)]
pub enum DaMsg {
    /// An event in flight, tagged with the topic of the sender's group.
    Event {
        /// The event being disseminated.
        event: Event,
        /// Topic of the group the sender belongs to.
        sender_topic: TopicId,
    },
    /// Bootstrap search request (`REQCONTACT`): the origin looks for
    /// processes interested in any of `topics`.
    ReqContact {
        /// The process the answer should be routed to.
        origin: ProcessId,
        /// De-duplication id, unique per (origin, attempt).
        req_id: u64,
        /// Topics of interest, nearest ancestor first.
        topics: Vec<TopicId>,
        /// Remaining overlay hops before the request expires.
        ttl: u8,
    },
    /// Bootstrap answer (`ANSCONTACT`): contacts interested in `topic`.
    AnsContact {
        /// The topic the contacts are interested in.
        topic: TopicId,
        /// The contacts themselves.
        contacts: Vec<ProcessId>,
    },
    /// A process asks a live superprocess for fresh supergroup contacts.
    NewProcessReq,
    /// The superprocess answers with members of its own group.
    NewProcessAns {
        /// Fresh supergroup contacts (the replier's topic + view sample).
        contacts: Vec<SuperEntry>,
    },
    /// Liveness probe of the maintenance task.
    Ping {
        /// Correlation nonce echoed by the pong.
        nonce: u64,
    },
    /// Liveness answer.
    Pong {
        /// Correlation nonce from the ping.
        nonce: u64,
    },
    /// Underlying membership gossip with a piggybacked supertable sample.
    Membership {
        /// The wrapped flat-membership message.
        inner: MembershipMsg,
        /// Sample of the sender's supertable, merged by receivers.
        stable_sample: Vec<SuperEntry>,
    },
}

impl WireSize for DaMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            DaMsg::Event { event, .. } => event.wire_size() + 4,
            DaMsg::ReqContact { topics, .. } => 4 + 8 + 4 + topics.len() * 4 + 1,
            DaMsg::AnsContact { contacts, .. } => 4 + contacts.wire_size(),
            DaMsg::NewProcessReq => 0,
            DaMsg::NewProcessAns { contacts } => 4 + contacts.len() * 8,
            DaMsg::Ping { .. } | DaMsg::Pong { .. } => 8,
            DaMsg::Membership {
                inner,
                stable_sample,
            } => inner.wire_size() + 4 + stable_sample.len() * 8,
        }
    }
}

/// Canonical content hash for the model checker's state digests: a
/// variant tag followed by every field, in declaration order. Payload
/// bytes are included — two events with the same id but different
/// payloads are different states.
impl McHash for DaMsg {
    fn mc_hash(&self, state: &mut dyn Hasher) {
        match self {
            DaMsg::Event {
                event,
                sender_topic,
            } => {
                state.write_u8(0);
                state.write_u32(event.id().publisher.0);
                state.write_u64(event.id().sequence);
                state.write_u64(event.topic().index() as u64);
                state.write(event.payload());
                state.write_u64(sender_topic.index() as u64);
            }
            DaMsg::ReqContact {
                origin,
                req_id,
                topics,
                ttl,
            } => {
                state.write_u8(1);
                state.write_u32(origin.0);
                state.write_u64(*req_id);
                state.write_u64(topics.len() as u64);
                for t in topics {
                    state.write_u64(t.index() as u64);
                }
                state.write_u8(*ttl);
            }
            DaMsg::AnsContact { topic, contacts } => {
                state.write_u8(2);
                state.write_u64(topic.index() as u64);
                state.write_u64(contacts.len() as u64);
                for c in contacts {
                    state.write_u32(c.0);
                }
            }
            DaMsg::NewProcessReq => state.write_u8(3),
            DaMsg::NewProcessAns { contacts } => {
                state.write_u8(4);
                state.write_u64(contacts.len() as u64);
                for e in contacts {
                    state.write_u32(e.pid.0);
                    state.write_u64(e.topic.index() as u64);
                }
            }
            DaMsg::Ping { nonce } => {
                state.write_u8(5);
                state.write_u64(*nonce);
            }
            DaMsg::Pong { nonce } => {
                state.write_u8(6);
                state.write_u64(*nonce);
            }
            DaMsg::Membership {
                inner,
                stable_sample,
            } => {
                state.write_u8(7);
                match inner {
                    MembershipMsg::JoinRequest => state.write_u8(0),
                    MembershipMsg::JoinReply { sample } => {
                        state.write_u8(1);
                        state.write_u64(sample.len() as u64);
                        for p in sample {
                            state.write_u32(p.0);
                        }
                    }
                    MembershipMsg::Digest { sample } => {
                        state.write_u8(2);
                        state.write_u64(sample.len() as u64);
                        for p in sample {
                            state.write_u32(p.0);
                        }
                    }
                }
                state.write_u64(stable_sample.len() as u64);
                for e in stable_sample {
                    state.write_u32(e.pid.0);
                    state.write_u64(e.topic.index() as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::ProcessId;

    #[test]
    fn wire_sizes_positive_and_scale() {
        let ping = DaMsg::Ping { nonce: 1 };
        assert_eq!(ping.wire_size(), 9);
        let small = DaMsg::AnsContact {
            topic: TopicId::ROOT,
            contacts: vec![],
        };
        let big = DaMsg::AnsContact {
            topic: TopicId::ROOT,
            contacts: vec![ProcessId(1); 10],
        };
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn event_message_accounts_payload() {
        let e = Event::new(ProcessId(0), 0, TopicId::ROOT, vec![0u8; 64]);
        let m = DaMsg::Event {
            event: e,
            sender_topic: TopicId::ROOT,
        };
        assert!(m.wire_size() > 64);
    }
}
