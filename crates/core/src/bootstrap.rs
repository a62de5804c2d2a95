//! The bootstrap task (`FIND_SUPER_CONTACT`, Fig. 4 of the paper).
//!
//! A process interested in `Ti` must populate its supertopic table with
//! contacts interested in `super(Ti)`. When no contact is provided out of
//! band, it searches the weakly-consistent overlay: it floods an
//! initialization message naming `super(Ti)`; if nothing answers within a
//! timeout, the scope widens to `super(super(Ti))`, and so on up to the
//! root (lines 19–27). When an answer arrives from a process interested in
//! `Tx`:
//!
//! * if `Tx == super(Ti)` the task stops (lines 31–32);
//! * otherwise the search narrows — topics that include `Tx` are removed
//!   from the request (line 34) — and continues until a direct
//!   superprocess is found.

use da_topics::{TopicHierarchy, TopicId};

/// Rounds before an unanswered bootstrap request widens its scope.
pub(crate) const BOOTSTRAP_TIMEOUT: u64 = 6;
/// Hop budget of a bootstrap search request through the overlay.
pub(crate) const REQUEST_TTL: u8 = 8;

/// What the embedding protocol should do for the bootstrap task this round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootstrapAction {
    /// Flood a `REQCONTACT` with these topics and this request id.
    SendRequest {
        /// De-duplication id for the new attempt.
        req_id: u64,
        /// Topics of interest, nearest ancestor first.
        topics: Vec<TopicId>,
    },
    /// Nothing to do this round.
    Idle,
}

/// State machine of `FIND_SUPER_CONTACT`.
#[derive(Debug, Clone)]
pub struct BootstrapTask {
    direct_super: TopicId,
    /// Topics currently searched for, nearest first (`initMsg`).
    wanted: Vec<TopicId>,
    /// Round at which the current attempt was issued.
    attempt_round: u64,
    /// Monotonic attempt counter, also used to mint request ids.
    attempts: u64,
    active: bool,
}

impl BootstrapTask {
    /// Creates the task for a process interested in `topic`. Returns
    /// `None` for the root topic (no supergroup exists).
    #[must_use]
    pub fn new(topic: TopicId, hierarchy: &TopicHierarchy) -> Option<Self> {
        let direct_super = hierarchy.parent(topic)?;
        Some(BootstrapTask {
            direct_super,
            wanted: vec![direct_super],
            attempt_round: 0,
            attempts: 0,
            active: false,
        })
    }

    /// True while the search is running.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The direct supertopic this task ultimately looks for.
    #[must_use]
    pub fn direct_super(&self) -> TopicId {
        self.direct_super
    }

    /// The topics currently requested, nearest ancestor first.
    #[must_use]
    pub fn wanted(&self) -> &[TopicId] {
        &self.wanted
    }

    /// Starts (or restarts) the search at `round`. Resets the scope to the
    /// direct supertopic.
    pub fn start(&mut self, round: u64) -> BootstrapAction {
        self.active = true;
        self.wanted = vec![self.direct_super];
        self.attempt_round = round;
        self.attempts += 1;
        BootstrapAction::SendRequest {
            req_id: self.attempts,
            topics: self.wanted.clone(),
        }
    }

    /// Round hook: widens the scope and re-floods when the current attempt
    /// has gone unanswered for six rounds (paper lines 19–27).
    pub fn on_round(&mut self, round: u64, hierarchy: &TopicHierarchy) -> BootstrapAction {
        if !self.active || round.saturating_sub(self.attempt_round) < BOOTSTRAP_TIMEOUT {
            return BootstrapAction::Idle;
        }
        // Widen: append the supertopic of the last requested topic, unless
        // the root is already requested.
        if let Some(&last) = self.wanted.last() {
            if let Some(parent) = hierarchy.parent(last) {
                self.wanted.push(parent);
            }
        }
        self.attempt_round = round;
        self.attempts += 1;
        BootstrapAction::SendRequest {
            req_id: self.attempts,
            topics: self.wanted.clone(),
        }
    }

    /// An `ANSCONTACT` arrived from a process interested in `answered`.
    /// Returns true when the task is finished (a direct superprocess was
    /// found). Otherwise the search narrows to topics below `answered`
    /// (paper line 34).
    pub fn on_answer(&mut self, answered: TopicId, hierarchy: &TopicHierarchy) -> bool {
        if !self.active {
            return true;
        }
        if answered == self.direct_super {
            self.active = false;
            return true;
        }
        // Narrow (paper line 34): drop every requested topic that includes
        // the answered one — those are further away than what we just
        // found. The answered topic itself is also dropped; the direct
        // supertopic always stays wanted.
        self.wanted
            .retain(|&t| !hierarchy.includes_or_eq(t, answered) || t == self.direct_super);
        if self.wanted.is_empty() {
            self.wanted = vec![self.direct_super];
        }
        false
    }

    /// Stops the task unconditionally (e.g. a contact arrived out of band).
    pub fn stop(&mut self) {
        self.active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (TopicHierarchy, Vec<TopicId>) {
        TopicHierarchy::linear_chain(4) // T0 (root) ← T1 ← T2 ← T3
    }

    #[test]
    fn root_topic_has_no_task() {
        let (h, ids) = chain();
        assert!(BootstrapTask::new(ids[0], &h).is_none());
        assert!(BootstrapTask::new(ids[1], &h).is_some());
    }

    #[test]
    fn start_requests_direct_super() {
        let (h, ids) = chain();
        let mut task = BootstrapTask::new(ids[3], &h).unwrap();
        assert_eq!(task.direct_super(), ids[2]);
        match task.start(0) {
            BootstrapAction::SendRequest { topics, .. } => {
                assert_eq!(topics, vec![ids[2]]);
            }
            BootstrapAction::Idle => panic!("start must request"),
        }
        assert!(task.is_active());
    }

    #[test]
    fn timeout_widens_scope_up_to_root() {
        let (h, ids) = chain();
        let mut task = BootstrapTask::new(ids[3], &h).unwrap();
        task.start(0);
        let t = BOOTSTRAP_TIMEOUT;
        assert_eq!(task.on_round(t - 1, &h), BootstrapAction::Idle, "not yet");
        match task.on_round(t, &h) {
            BootstrapAction::SendRequest { topics, .. } => {
                assert_eq!(topics, vec![ids[2], ids[1]]);
            }
            BootstrapAction::Idle => panic!("timeout must widen"),
        }
        match task.on_round(2 * t, &h) {
            BootstrapAction::SendRequest { topics, .. } => {
                assert_eq!(topics, vec![ids[2], ids[1], ids[0]]);
            }
            BootstrapAction::Idle => panic!("second widening expected"),
        }
        // Already at root: scope stays, but the request re-floods.
        match task.on_round(3 * t, &h) {
            BootstrapAction::SendRequest { topics, .. } => {
                assert_eq!(topics.len(), 3);
            }
            BootstrapAction::Idle => panic!("re-flood expected"),
        }
    }

    #[test]
    fn direct_answer_finishes() {
        let (h, ids) = chain();
        let mut task = BootstrapTask::new(ids[3], &h).unwrap();
        task.start(0);
        assert!(task.on_answer(ids[2], &h));
        assert!(!task.is_active());
    }

    #[test]
    fn ancestor_answer_narrows_but_continues() {
        let (h, ids) = chain();
        let mut task = BootstrapTask::new(ids[3], &h).unwrap();
        task.start(0);
        // Widen twice: wanted = [T2, T1, T0].
        task.on_round(BOOTSTRAP_TIMEOUT, &h);
        task.on_round(2 * BOOTSTRAP_TIMEOUT, &h);
        assert_eq!(task.wanted().len(), 3);
        // An answer from T1 narrows: T0 includes T1 → dropped; T1 itself →
        // dropped (we already have that level); T2 stays.
        assert!(!task.on_answer(ids[1], &h));
        assert!(task.is_active());
        assert_eq!(task.wanted(), &[ids[2]]);
    }

    #[test]
    fn request_ids_are_unique_per_attempt() {
        let (h, ids) = chain();
        let mut task = BootstrapTask::new(ids[2], &h).unwrap();
        let a = match task.start(0) {
            BootstrapAction::SendRequest { req_id, .. } => req_id,
            BootstrapAction::Idle => unreachable!(),
        };
        let b = match task.on_round(BOOTSTRAP_TIMEOUT, &h) {
            BootstrapAction::SendRequest { req_id, .. } => req_id,
            BootstrapAction::Idle => unreachable!(),
        };
        assert_ne!(a, b);
    }

    #[test]
    fn stop_halts_round_activity() {
        let (h, ids) = chain();
        let mut task = BootstrapTask::new(ids[2], &h).unwrap();
        task.start(0);
        task.stop();
        assert_eq!(task.on_round(10, &h), BootstrapAction::Idle);
    }
}
