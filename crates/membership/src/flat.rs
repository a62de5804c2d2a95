//! Dynamic flat membership (the paper's reference \[10\]).
//!
//! The Kermarrec–Massoulié–Ganesh gossip that keeps a topic table fresh:
//! joins through contacts, a digest of the view every [`GOSSIP_PERIOD`]
//! rounds, and eviction of entries silent for [`EVICTION_AGE`] rounds.
//! The functions run on the [`PartialView`] a process owns and return
//! the messages they want sent; the embedding protocol routes them. This
//! lets daMulticast piggyback its supertopic-table entries on membership
//! traffic, exactly as the paper prescribes (Sec. V-A.2a: "once a process
//! has an initialized supertopic table, this information is disseminated,
//! using the updates of the underlying membership algorithm").
//!
//! Only dynamic mode runs them. The paper's static mode keeps the view
//! it was built with, so none of its entries is ever stamped or evicted.
//!
//! ```
//! use da_membership::{flat, MembershipMsg, PartialView};
//! use da_core::{rng_from_seed, ProcessId};
//!
//! let mut view = PartialView::new(ProcessId(0), 19);
//! let mut rng = rng_from_seed(7);
//! let joins = flat::join(&mut view, &[ProcessId(1), ProcessId(2)], &mut rng);
//! assert_eq!(joins.len(), 2); // one JoinRequest per contact
//! assert!(joins.iter().all(|(_, msg)| *msg == MembershipMsg::JoinRequest));
//! assert!(view.contains(ProcessId(1)));
//! ```

use crate::{MembershipMsg, PartialView};
use da_core::ProcessId;
use rand::Rng;

/// Rounds between digest gossips.
pub const GOSSIP_PERIOD: u64 = 5;
/// View members that receive a digest each gossip period.
pub const DIGEST_FANOUT: usize = 3;
/// Entries a digest carries, its sender included.
pub const DIGEST_SIZE: usize = 6;
/// Rounds an entry may stay silent before it is evicted.
pub const EVICTION_AGE: u64 = 50;

/// Joins the group through `contacts`: absorbs them into `view` and
/// returns one [`MembershipMsg::JoinRequest`] per contact.
pub fn join<R: Rng>(
    view: &mut PartialView,
    contacts: &[ProcessId],
    rng: &mut R,
) -> Vec<(ProcessId, MembershipMsg)> {
    view.merge(contacts, rng);
    contacts
        .iter()
        .map(|&c| (c, MembershipMsg::JoinRequest))
        .collect()
}

/// Round hook: every [`GOSSIP_PERIOD`] rounds, evicts the entries not
/// heard from within [`EVICTION_AGE`] rounds and sends a digest to
/// [`DIGEST_FANOUT`] random view members. Entries never heard from
/// (join contacts) are exempt until first contact.
pub fn on_round<R: Rng>(
    view: &mut PartialView,
    round: u64,
    rng: &mut R,
) -> Vec<(ProcessId, MembershipMsg)> {
    if !round.is_multiple_of(GOSSIP_PERIOD) {
        return Vec::new();
    }
    view.evict_stale(round, EVICTION_AGE);
    let digest = digest(view, rng);
    view.sample(DIGEST_FANOUT, rng)
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

/// Message hook: learns and stamps the sender, merges incoming samples
/// (stamping each entry they add) and answers join requests.
pub fn on_message<R: Rng>(
    view: &mut PartialView,
    from: ProcessId,
    msg: &MembershipMsg,
    round: u64,
    rng: &mut R,
) -> Vec<(ProcessId, MembershipMsg)> {
    view.insert(from, rng);
    view.mark_heard(from, round);
    match msg {
        MembershipMsg::JoinRequest => {
            let sample = digest(view, rng);
            vec![(from, MembershipMsg::JoinReply { sample })]
        }
        MembershipMsg::JoinReply { sample } | MembershipMsg::Digest { sample } => {
            for &pid in sample {
                if view.insert(pid, rng) {
                    view.mark_heard(pid, round);
                }
            }
            Vec::new()
        }
    }
}

/// A random sample of the view plus its owner: [`DIGEST_SIZE`] entries
/// when the view holds enough.
fn digest<R: Rng>(view: &PartialView, rng: &mut R) -> Vec<ProcessId> {
    let mut sample = view.sample(DIGEST_SIZE - 1, rng);
    sample.push(view.owner());
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmg_view_size;
    use da_core::rng_from_seed;

    fn view(me: u32) -> PartialView {
        PartialView::new(ProcessId(me), kmg_view_size(3.0, 50))
    }

    #[test]
    fn join_contacts_enter_view() {
        let mut rng = rng_from_seed(1);
        let mut v = view(0);
        let out = join(&mut v, &[ProcessId(1), ProcessId(2)], &mut rng);
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|(_, msg)| matches!(msg, MembershipMsg::JoinRequest)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn join_request_is_answered_with_sample() {
        let mut rng = rng_from_seed(2);
        let mut v = view(0);
        join(&mut v, &[ProcessId(5)], &mut rng);
        let replies = on_message(
            &mut v,
            ProcessId(9),
            &MembershipMsg::JoinRequest,
            0,
            &mut rng,
        );
        assert_eq!(replies.len(), 1);
        let (to, msg) = &replies[0];
        assert_eq!(*to, ProcessId(9));
        match msg {
            MembershipMsg::JoinReply { sample } => assert!(sample.contains(&ProcessId(0))),
            other => panic!("expected JoinReply, got {other:?}"),
        }
        // The joiner is learned.
        assert!(v.contains(ProcessId(9)));
    }

    #[test]
    fn digest_gossip_period_respected() {
        let mut rng = rng_from_seed(3);
        let mut v = view(0);
        join(
            &mut v,
            &[ProcessId(1), ProcessId(2), ProcessId(3)],
            &mut rng,
        );
        assert!(!on_round(&mut v, 0, &mut rng).is_empty());
        assert!(on_round(&mut v, 1, &mut rng).is_empty());
        assert!(on_round(&mut v, GOSSIP_PERIOD - 1, &mut rng).is_empty());
        let digests = on_round(&mut v, GOSSIP_PERIOD, &mut rng);
        assert_eq!(digests.len(), DIGEST_FANOUT);
    }

    #[test]
    fn digest_carries_sender() {
        let mut rng = rng_from_seed(4);
        let mut v = view(7);
        join(&mut v, &[ProcessId(1)], &mut rng);
        let msgs = on_round(&mut v, 0, &mut rng);
        assert!(!msgs.is_empty());
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
        let mut v = view(0);
        let out = on_message(
            &mut v,
            ProcessId(1),
            &MembershipMsg::Digest {
                sample: vec![ProcessId(2), ProcessId(3), ProcessId(0)],
            },
            4,
            &mut rng,
        );
        assert!(out.is_empty());
        assert!(v.contains(ProcessId(1)), "sender learned");
        assert!(v.contains(ProcessId(2)));
        assert!(v.contains(ProcessId(3)));
        assert!(!v.contains(ProcessId(0)), "self never enters view");
        assert_eq!(v.last_heard(ProcessId(1)), Some(4), "sender stamped");
        assert_eq!(v.last_heard(ProcessId(2)), Some(4), "new entry stamped");
    }

    #[test]
    fn stale_entries_evicted_after_age() {
        let mut rng = rng_from_seed(6);
        let mut v = view(0);
        let silence = MembershipMsg::Digest { sample: vec![] };
        on_message(&mut v, ProcessId(1), &silence, 0, &mut rng);
        on_round(&mut v, EVICTION_AGE, &mut rng);
        assert!(v.contains(ProcessId(1)), "young entry survives");
        on_round(&mut v, EVICTION_AGE + GOSSIP_PERIOD, &mut rng);
        assert!(!v.contains(ProcessId(1)), "stale entry evicted");
    }

    #[test]
    fn static_entries_exempt_from_eviction() {
        let mut rng = rng_from_seed(7);
        let mut v = view(0);
        v.merge(&[ProcessId(1), ProcessId(2)], &mut rng);
        on_round(&mut v, 1_000_000, &mut rng);
        assert_eq!(v.len(), 2, "never-heard seeds persist");
    }

    #[test]
    fn view_respects_kmg_capacity() {
        let mut rng = rng_from_seed(8);
        let mut v = PartialView::new(ProcessId(0), kmg_view_size(3.0, 100));
        let everyone: Vec<ProcessId> = (1..100).map(ProcessId).collect();
        join(&mut v, &everyone, &mut rng);
        assert_eq!(v.len(), 19); // (3+1)·ln(100) = 18.4 → 19
    }
}
