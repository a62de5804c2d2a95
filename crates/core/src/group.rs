//! What the members of one topic group share.
//!
//! The paper's knobs `b`, `c`, `g`, `a` and `z` are parameters of a topic
//! (Sec. V-B), and its memory count covers only the tables a process
//! keeps (Sec. VI-C). So a group's constants live once per group: the
//! builders make one [`Group`] per populated group and every member holds
//! it through one `Arc`.

use crate::params::TopicParams;
use da_topics::{TopicHierarchy, TopicId};
use std::sync::Arc;

/// One topic group's constants: its topic, the hierarchy, its
/// [`TopicParams`], its size `S`, and Fig. 7's per-group numbers
/// `fanout(S)`, `p_sel = g/S` and `p_a = a/z`, each computed once here
/// rather than on every first delivery.
///
/// ```
/// use damulticast::{Group, TopicParams};
/// use da_topics::TopicHierarchy;
/// use std::sync::Arc;
///
/// let (hierarchy, ids) = TopicHierarchy::linear_chain(2);
/// let params = TopicParams::paper_default();
/// let group = Group::new(ids[1], Arc::new(hierarchy), params, 1000);
/// assert_eq!(group.fanout(), 8); // ⌊log10(1000) + 5⌋
/// assert_eq!(group.p_sel(), 0.005); // g / S
/// assert_eq!(group.p_a(), params.p_a()); // a / z
/// ```
#[derive(Debug)]
pub struct Group {
    pub(crate) topic: TopicId,
    pub(crate) hierarchy: Arc<TopicHierarchy>,
    pub(crate) params: TopicParams,
    /// `S_Ti`, the size estimate that dimensions the view and sets
    /// `p_sel` and the fanout.
    pub(crate) size: usize,
    fanout: usize,
    p_sel: f64,
    p_a: f64,
}

impl Group {
    /// The group of `topic` in `hierarchy`, of `size` members, run with
    /// `params`.
    #[must_use]
    pub fn new(
        topic: TopicId,
        hierarchy: Arc<TopicHierarchy>,
        params: TopicParams,
        size: usize,
    ) -> Self {
        Group {
            topic,
            hierarchy,
            params,
            size,
            fanout: params.fanout.fanout(size),
            p_sel: params.p_sel(size),
            p_a: params.p_a(),
        }
    }

    /// The group's parameters; `z` bounds every member's supertable.
    #[must_use]
    pub fn params(&self) -> &TopicParams {
        &self.params
    }

    /// How many group-mates a first delivery gossips to: `fanout(S)`.
    #[must_use]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The link-election probability `p_sel = g / S`, clamped into `[0, 1]`.
    #[must_use]
    pub fn p_sel(&self) -> f64 {
        self.p_sel
    }

    /// The per-entry spray probability `p_a = a / z`, clamped into `[0, 1]`.
    #[must_use]
    pub fn p_a(&self) -> f64 {
        self.p_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_membership::FanoutRule;

    /// The numbers a first delivery reads are the ones the rule and the
    /// parameters give, bit for bit: no draw can move.
    #[test]
    fn fig7_numbers_are_computed_once_and_exactly() {
        let (hierarchy, ids) = TopicHierarchy::linear_chain(3);
        let hierarchy = Arc::new(hierarchy);
        let rules = [
            FanoutRule::Log10PlusC { c: 5.0 },
            FanoutRule::LnPlusC { c: 5.0 },
            FanoutRule::Fixed(7),
        ];
        for fanout in rules {
            let params = TopicParams::paper_default().with_fanout(fanout);
            for (&topic, size) in ids.iter().zip([10, 100, 1000]) {
                let group = Group::new(topic, Arc::clone(&hierarchy), params, size);
                assert_eq!(
                    group.fanout(),
                    fanout.fanout(size),
                    "{fanout:?}, S = {size}"
                );
                assert_eq!(group.p_sel().to_bits(), params.p_sel(size).to_bits());
                assert_eq!(group.p_a().to_bits(), params.p_a().to_bits());
                assert_eq!((group.topic, group.size), (topic, size));
            }
        }
    }
}
