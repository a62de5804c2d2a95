//! The daMulticast wire protocol.

use crate::event::Event;
use crate::tables::SuperEntry;
use da_core::{Envelope, McHash, ProcessId, WireSize};
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
/// * [`ControlMsg::ReqContact`]/[`ControlMsg::AnsContact`] — the bootstrap
///   search (Fig. 4).
/// * [`DaMsg::NewProcessReq`]/[`ControlMsg::NewProcessAns`] — supertable
///   refresh (`NEWPROCESS`, Fig. 6).
/// * [`DaMsg::Ping`]/[`DaMsg::Pong`] — the liveness `CHECK` of Fig. 6
///   (footnote 7: "the detection of alive processes is done via
///   timeouts").
/// * [`ControlMsg::Membership`] — underlying membership traffic,
///   piggybacking a supertable sample (Sec. V-A.2a).
///
/// Three words. The variants declared here own no heap buffer and are built
/// without allocating; the four that carry a list live in [`ControlMsg`]
/// behind the one `Box` of [`DaMsg::Control`], so the message the data
/// plane moves 7.9 times per delivery is not sized by the fattest message
/// the control plane sends now and then. A `ControlMsg` converts with
/// `.into()`.
#[derive(Debug, Clone)]
pub enum DaMsg {
    /// An event in flight, tagged with the topic of the sender's group.
    Event {
        /// The event being disseminated.
        event: Event,
        /// Topic of the group the sender belongs to.
        sender_topic: TopicId,
    },
    /// A process asks a live superprocess for fresh supergroup contacts.
    NewProcessReq,
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
    /// A control-plane message that carries a list.
    Control(Box<ControlMsg>),
}

/// The control-plane messages that own a buffer, boxed inside
/// [`DaMsg::Control`].
#[derive(Debug, Clone)]
pub enum ControlMsg {
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
    /// The superprocess answers a [`DaMsg::NewProcessReq`] with members of
    /// its own group.
    NewProcessAns {
        /// Fresh supergroup contacts (the replier's topic + view sample).
        contacts: Vec<SuperEntry>,
    },
    /// Underlying membership gossip with a piggybacked supertable sample.
    Membership {
        /// The wrapped flat-membership message.
        inner: MembershipMsg,
        /// Sample of the sender's supertable, merged by receivers.
        stable_sample: Vec<SuperEntry>,
    },
}

// An envelope is 24 bytes of routing plus the message, and a wave keeps
// 31.5k of them in flight: padding `DaMsg` by 88 bytes cost `sim_wave`
// 28-42%. A variant that owns a buffer goes into `ControlMsg`. See
// ARCHITECTURE.md, "Bytes in flight".
const _: () = assert!(std::mem::size_of::<DaMsg>() == 24);
const _: () = assert!(std::mem::size_of::<Envelope<DaMsg>>() == 48);

impl From<ControlMsg> for DaMsg {
    fn from(control: ControlMsg) -> Self {
        DaMsg::Control(Box::new(control))
    }
}

/// One tag byte — 0 to 7 in the order the paper's figures introduce the
/// messages, whichever enum holds the variant — plus the body.
impl WireSize for DaMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            DaMsg::Event { event, .. } => event.wire_size() + 4,
            DaMsg::NewProcessReq => 0,
            DaMsg::Ping { .. } | DaMsg::Pong { .. } => 8,
            DaMsg::Control(control) => match &**control {
                ControlMsg::ReqContact { topics, .. } => 4 + 8 + 4 + topics.len() * 4 + 1,
                ControlMsg::AnsContact { contacts, .. } => 4 + contacts.wire_size(),
                ControlMsg::NewProcessAns { contacts } => 4 + contacts.len() * 8,
                ControlMsg::Membership {
                    inner,
                    stable_sample,
                } => inner.wire_size() + 4 + stable_sample.len() * 8,
            },
        }
    }
}

/// Canonical content hash for the model checker's state digests: the
/// wire tag followed by every field, in declaration order.
impl McHash for DaMsg {
    fn mc_hash(&self, state: &mut dyn Hasher) {
        match self {
            DaMsg::Event {
                event,
                sender_topic,
            } => {
                state.write_u8(0);
                state.write_u32(event.id.publisher.0);
                state.write_u64(u64::from(event.id.sequence));
                state.write_u64(event.topic.index() as u64);
                state.write_u32(event.len);
                state.write_u64(sender_topic.index() as u64);
            }
            DaMsg::NewProcessReq => state.write_u8(3),
            DaMsg::Ping { nonce } => {
                state.write_u8(5);
                state.write_u64(*nonce);
            }
            DaMsg::Pong { nonce } => {
                state.write_u8(6);
                state.write_u64(*nonce);
            }
            DaMsg::Control(control) => control.mc_hash(state),
        }
    }
}

impl McHash for ControlMsg {
    fn mc_hash(&self, state: &mut dyn Hasher) {
        match self {
            ControlMsg::ReqContact {
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
            ControlMsg::AnsContact { topic, contacts } => {
                state.write_u8(2);
                state.write_u64(topic.index() as u64);
                state.write_u64(contacts.len() as u64);
                for c in contacts {
                    state.write_u32(c.0);
                }
            }
            ControlMsg::NewProcessAns { contacts } => {
                state.write_u8(4);
                state.write_u64(contacts.len() as u64);
                for e in contacts {
                    state.write_u32(e.pid.0);
                    state.write_u64(e.topic.index() as u64);
                }
            }
            ControlMsg::Membership {
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
    use da_core::FxHasher;

    #[test]
    fn wire_sizes_positive_and_scale() {
        let ping = DaMsg::Ping { nonce: 1 };
        assert_eq!(ping.wire_size(), 9);
        let answer = |contacts| -> DaMsg {
            ControlMsg::AnsContact {
                topic: TopicId::ROOT,
                contacts,
            }
            .into()
        };
        let small = answer(vec![]);
        let big = answer(vec![ProcessId(1); 10]);
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

    /// What the eight messages put on the wire and into the model
    /// checker's digests, computed when all eight were inline variants of
    /// `DaMsg` and `Event` held its fields itself (PR 18). `bytes_sent`
    /// and every state digest are built from these; a change of layout
    /// moves neither. The event's digest hashes its payload's length, since
    /// an event keeps no payload bytes; its wire size is the one it had.
    #[test]
    fn wire_size_and_mc_hash_are_those_of_the_inline_layout() {
        let t = TopicId::from_index;
        let p = ProcessId;
        let entry = |pid, topic| SuperEntry {
            pid: p(pid),
            topic: t(topic),
        };
        let messages: [(DaMsg, usize, u64); 8] = [
            (
                DaMsg::Event {
                    event: Event::new(p(7), 3, t(2), &b"hello"[..]),
                    sender_topic: t(1),
                },
                30,
                0xe9f3_266a_1ea1_434b,
            ),
            (
                ControlMsg::ReqContact {
                    origin: p(9),
                    req_id: 0x1_0000_0002,
                    topics: vec![t(2), t(1), t(0)],
                    ttl: 4,
                }
                .into(),
                30,
                0x4f32_9261_7fcf_eb9a,
            ),
            (
                ControlMsg::AnsContact {
                    topic: t(1),
                    contacts: vec![p(11), p(12)],
                }
                .into(),
                17,
                0x4650_c92c_1ad2_44a2,
            ),
            (DaMsg::NewProcessReq, 1, 0x794c_ff81_fe9d_4d6b),
            (
                ControlMsg::NewProcessAns {
                    contacts: vec![entry(5, 1), entry(6, 1), entry(8, 0)],
                }
                .into(),
                29,
                0x9940_645e_f2d8_118f,
            ),
            (DaMsg::Ping { nonce: 0xDEAD_BEEF }, 9, 0x71d8_9a91_7d4e_af73),
            (DaMsg::Pong { nonce: 0xDEAD_BEEF }, 9, 0xb313_ba13_80b0_a99d),
            (
                ControlMsg::Membership {
                    inner: MembershipMsg::Digest {
                        sample: vec![p(21), p(22), p(23)],
                    },
                    stable_sample: vec![entry(3, 1), entry(4, 0)],
                }
                .into(),
                38,
                0x949d_a4ed_ded4_9001,
            ),
        ];
        for (tag, (msg, wire_size, digest)) in messages.iter().enumerate() {
            assert_eq!(msg.wire_size(), *wire_size, "tag {tag}: {msg:?}");
            let mut hasher = FxHasher::default();
            msg.mc_hash(&mut hasher);
            assert_eq!(hasher.finish(), *digest, "tag {tag}: {msg:?}");
        }
    }
}
