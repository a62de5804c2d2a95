//! Dynamic flat membership (the paper's reference \[10\]).
//!
//! `FlatMembership` is a *component*, not a full [`da_core::ExecProtocol`]:
//! it returns the messages it wants to send and the embedding protocol
//! routes them. This lets daMulticast piggyback its supertopic-table
//! entries on membership traffic, exactly as the paper prescribes
//! (Sec. V-A.2a: "once a process has an initialized supertopic table, this
//! information is disseminated, using the updates of the underlying
//! membership algorithm").

use crate::{kmg_view_size, MembershipMsg, PartialView};
use da_core::ProcessId;
use rand::Rng;

/// Tunables of the flat membership component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipParams {
    /// The paper's `b` constant: views have size `(b + 1)·ln(S)`.
    pub b: f64,
    /// Expected group size used to dimension the view.
    pub expected_group_size: usize,
    /// How many view members receive a digest each gossip period.
    pub digest_fanout: usize,
    /// How many entries a digest carries.
    pub digest_size: usize,
    /// Rounds between digest gossips.
    pub gossip_period: u64,
    /// Entries not heard from for this many rounds are evicted.
    pub eviction_age: u64,
}

impl MembershipParams {
    /// The paper's simulation parameters for a group of `expected_group_size`
    /// processes (`b = 3`).
    #[must_use]
    pub fn paper_default(expected_group_size: usize) -> Self {
        MembershipParams {
            b: 3.0,
            expected_group_size,
            digest_fanout: 3,
            digest_size: 6,
            gossip_period: 5,
            eviction_age: 50,
        }
    }

    /// The view capacity implied by these parameters.
    #[must_use]
    pub fn view_capacity(&self) -> usize {
        kmg_view_size(self.b, self.expected_group_size)
    }
}

/// A dynamic flat partial-view membership component.
///
/// Liveness evidence is kept as a stamp on the view entry it describes
/// ([`PartialView::mark_heard`]), so the memory a process spends on it is
/// bounded by the view capacity — `(b + 1)·ln(S)` words, allocated on
/// first use — and not by the number of senders it has ever heard from.
///
/// ```
/// use da_membership::{FlatMembership, MembershipParams};
/// use da_core::{rng_from_seed, ProcessId};
///
/// let params = MembershipParams::paper_default(100);
/// let mut m = FlatMembership::new(ProcessId(0), params);
/// let mut rng = rng_from_seed(7);
/// let joins = m.join(&[ProcessId(1), ProcessId(2)], &mut rng);
/// assert_eq!(joins.len(), 2); // one JoinRequest per contact
/// assert!(m.view().contains(ProcessId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FlatMembership {
    me: ProcessId,
    params: MembershipParams,
    view: PartialView,
}

impl FlatMembership {
    /// Creates an empty membership state for `me`.
    #[must_use]
    pub fn new(me: ProcessId, params: MembershipParams) -> Self {
        let capacity = params.view_capacity();
        FlatMembership {
            me,
            params,
            view: PartialView::new(me, capacity),
        }
    }

    /// Creates a membership state with a pre-populated view (the paper's
    /// static simulation mode).
    #[must_use]
    pub fn with_static_view<R: Rng>(
        me: ProcessId,
        params: MembershipParams,
        entries: &[ProcessId],
        rng: &mut R,
    ) -> Self {
        let mut m = FlatMembership::new(me, params);
        m.view.merge(entries, rng);
        m
    }

    /// The current partial view.
    #[must_use]
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// The parameters this component was built with.
    #[must_use]
    pub fn params(&self) -> &MembershipParams {
        &self.params
    }

    /// Joins the group through `contacts`: absorbs them into the view and
    /// returns one [`MembershipMsg::JoinRequest`] per contact.
    pub fn join<R: Rng>(
        &mut self,
        contacts: &[ProcessId],
        rng: &mut R,
    ) -> Vec<(ProcessId, MembershipMsg)> {
        self.view.merge(contacts, rng);
        contacts
            .iter()
            .map(|&c| (c, MembershipMsg::JoinRequest))
            .collect()
    }

    /// Round hook: every `gossip_period` rounds, sends digests to
    /// `digest_fanout` random view members and evicts stale entries.
    pub fn on_round<R: Rng>(&mut self, round: u64, rng: &mut R) -> Vec<(ProcessId, MembershipMsg)> {
        if self.params.gossip_period == 0 || !round.is_multiple_of(self.params.gossip_period) {
            return Vec::new();
        }
        self.evict_stale(round);
        let digest = self.make_digest(rng);
        self.view
            .sample(self.params.digest_fanout, rng)
            .into_iter()
            .map(|to| {
                (
                    to,
                    MembershipMsg::Digest {
                        sample: digest.clone(),
                    },
                )
            })
            .collect()
    }

    /// Message hook: merges incoming samples and answers join requests.
    pub fn on_message<R: Rng>(
        &mut self,
        from: ProcessId,
        msg: &MembershipMsg,
        round: u64,
        rng: &mut R,
    ) -> Vec<(ProcessId, MembershipMsg)> {
        self.view.insert(from, rng);
        self.mark_heard(from, round);
        match msg {
            MembershipMsg::JoinRequest => {
                let sample = self.make_digest(rng);
                vec![(from, MembershipMsg::JoinReply { sample })]
            }
            MembershipMsg::JoinReply { sample } | MembershipMsg::Digest { sample } => {
                for &pid in sample {
                    if self.view.insert(pid, rng) {
                        self.mark_heard(pid, round);
                    }
                }
                Vec::new()
            }
        }
    }

    /// Records liveness evidence for `pid` at `round`. Only view members
    /// are tracked: evidence about anyone else could never evict or spare
    /// an entry, and every path that later admits such a process
    /// ([`FlatMembership::on_message`]) stamps it afresh on entry. With
    /// `eviction_age == u64::MAX` no stamp can ever be too old, so none is
    /// kept: the paper's static mode pays nothing per message here.
    pub fn mark_heard(&mut self, pid: ProcessId, round: u64) {
        if self.params.eviction_age != u64::MAX {
            self.view.mark_heard(pid, round);
        }
    }

    /// Evicts view entries not heard from within `eviction_age` rounds.
    /// Entries never heard from (static seeds, join contacts) are exempt
    /// until first contact — the paper's static mode must not decay.
    pub fn evict_stale(&mut self, round: u64) {
        self.view.evict_stale(round, self.params.eviction_age);
    }

    fn make_digest<R: Rng>(&self, rng: &mut R) -> Vec<ProcessId> {
        let mut sample = self
            .view
            .sample(self.params.digest_size.saturating_sub(1), rng);
        sample.push(self.me);
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::rng_from_seed;

    fn params() -> MembershipParams {
        MembershipParams {
            b: 3.0,
            expected_group_size: 50,
            digest_fanout: 3,
            digest_size: 4,
            gossip_period: 2,
            eviction_age: 10,
        }
    }

    #[test]
    fn join_contacts_enter_view() {
        let mut rng = rng_from_seed(1);
        let mut m = FlatMembership::new(ProcessId(0), params());
        let out = m.join(&[ProcessId(1), ProcessId(2)], &mut rng);
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|(_, msg)| matches!(msg, MembershipMsg::JoinRequest)));
        assert_eq!(m.view().len(), 2);
    }

    #[test]
    fn join_request_is_answered_with_sample() {
        let mut rng = rng_from_seed(2);
        let mut m = FlatMembership::new(ProcessId(0), params());
        m.join(&[ProcessId(5)], &mut rng);
        let replies = m.on_message(ProcessId(9), &MembershipMsg::JoinRequest, 0, &mut rng);
        assert_eq!(replies.len(), 1);
        let (to, msg) = &replies[0];
        assert_eq!(*to, ProcessId(9));
        match msg {
            MembershipMsg::JoinReply { sample } => assert!(sample.contains(&ProcessId(0))),
            other => panic!("expected JoinReply, got {other:?}"),
        }
        // The joiner is learned.
        assert!(m.view().contains(ProcessId(9)));
    }

    #[test]
    fn digest_gossip_period_respected() {
        let mut rng = rng_from_seed(3);
        let mut m = FlatMembership::new(ProcessId(0), params());
        m.join(&[ProcessId(1), ProcessId(2), ProcessId(3)], &mut rng);
        assert!(!m.on_round(0, &mut rng).is_empty());
        assert!(m.on_round(1, &mut rng).is_empty());
        assert!(!m.on_round(2, &mut rng).is_empty());
    }

    #[test]
    fn digest_carries_sender() {
        let mut rng = rng_from_seed(4);
        let mut m = FlatMembership::new(ProcessId(7), params());
        m.join(&[ProcessId(1)], &mut rng);
        let msgs = m.on_round(0, &mut rng);
        for (_, msg) in msgs {
            match msg {
                MembershipMsg::Digest { sample } => assert!(sample.contains(&ProcessId(7))),
                other => panic!("expected Digest, got {other:?}"),
            }
        }
    }

    #[test]
    fn merges_digest_samples() {
        let mut rng = rng_from_seed(5);
        let mut m = FlatMembership::new(ProcessId(0), params());
        let out = m.on_message(
            ProcessId(1),
            &MembershipMsg::Digest {
                sample: vec![ProcessId(2), ProcessId(3), ProcessId(0)],
            },
            4,
            &mut rng,
        );
        assert!(out.is_empty());
        assert!(m.view().contains(ProcessId(1)), "sender learned");
        assert!(m.view().contains(ProcessId(2)));
        assert!(m.view().contains(ProcessId(3)));
        assert!(!m.view().contains(ProcessId(0)), "self never enters view");
    }

    #[test]
    fn stale_entries_evicted_after_age() {
        let mut rng = rng_from_seed(6);
        let mut m = FlatMembership::new(ProcessId(0), params());
        m.on_message(
            ProcessId(1),
            &MembershipMsg::Digest { sample: vec![] },
            0,
            &mut rng,
        );
        m.evict_stale(5);
        assert!(m.view().contains(ProcessId(1)), "young entry survives");
        m.evict_stale(11);
        assert!(!m.view().contains(ProcessId(1)), "stale entry evicted");
    }

    #[test]
    fn static_entries_exempt_from_eviction() {
        let mut rng = rng_from_seed(7);
        let m0 = FlatMembership::with_static_view(
            ProcessId(0),
            params(),
            &[ProcessId(1), ProcessId(2)],
            &mut rng,
        );
        let mut m = m0;
        m.evict_stale(1_000_000);
        assert_eq!(m.view().len(), 2, "never-heard static seeds persist");
    }

    #[test]
    fn without_an_eviction_age_no_stamp_is_kept() {
        let mut rng = rng_from_seed(9);
        let forever = MembershipParams {
            eviction_age: u64::MAX,
            ..params()
        };
        let mut m =
            FlatMembership::with_static_view(ProcessId(0), forever, &[ProcessId(1)], &mut rng);
        m.mark_heard(ProcessId(1), 3);
        assert_eq!(m.view().last_heard(ProcessId(1)), None);
        m.evict_stale(u64::MAX);
        assert!(m.view().contains(ProcessId(1)));

        let mut m =
            FlatMembership::with_static_view(ProcessId(0), params(), &[ProcessId(1)], &mut rng);
        m.mark_heard(ProcessId(1), 3);
        m.mark_heard(ProcessId(2), 3);
        assert_eq!(m.view().last_heard(ProcessId(1)), Some(3));
        assert_eq!(m.view().last_heard(ProcessId(2)), None, "not a member");
    }

    #[test]
    fn view_respects_kmg_capacity() {
        let mut rng = rng_from_seed(8);
        let p = MembershipParams::paper_default(100);
        let mut m = FlatMembership::new(ProcessId(0), p);
        let everyone: Vec<ProcessId> = (1..100).map(ProcessId).collect();
        m.join(&everyone, &mut rng);
        assert_eq!(m.view().len(), p.view_capacity());
        assert_eq!(m.view().len(), 19); // (3+1)·ln(100) = 18.4 → 19
    }
}
