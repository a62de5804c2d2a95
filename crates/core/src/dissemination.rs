//! The dissemination decision logic (Fig. 7 of the paper).
//!
//! Separated from the protocol state machine so the randomized decisions
//! can be unit-tested in isolation. Given the group's numbers (computed
//! once per group from its size and per-topic parameters, see
//! [`Group`]) and the membership tables, [`plan_dissemination`] decides
//!
//! 1. **inter-group forwarding**: per supertopic table, with probability
//!    `p_sel = g / S` the process elects itself as a link and then sends
//!    the event to each of that table's entries with probability
//!    `p_a = a / z` (Fig. 7, lines 3–7). A topic of the paper's tree has
//!    one table; a topic with several direct supertopics has one each
//!    (Sec. VIII), so the event climbs every inclusion edge, and
//! 2. **intra-group gossip**: the event goes to `fanout(S)` distinct
//!    processes drawn uniformly from the topic table (lines 8–14, the
//!    `Table − Ω` loop).
//!
//! Each step draws only what it decides: one `p_sel` draw per table, a
//! `p_a` draw per entry of a table it was elected for, and one bounded
//! draw per gossip target kept — a leaf of the paper's 1,000-process group
//! spends 8 on its 28-entry table, not the 27 a full shuffle would.
//!
//! A note on the pseudo-code: Fig. 7 line 3 reads `if RAND() ≥ p_sel`,
//! which would elect with probability `1 − p_sel` and contradicts both the
//! prose ("with a probability p_sel ... a process decides to take part",
//! Sec. V-B) and the analysis (`nbSuperMsg = S·p_sel·p_a·z·p_succ`,
//! Sec. VI-B). We follow the prose and the analysis: elect with
//! probability `p_sel`.

use crate::group::Group;
use crate::tables::{SuperEntry, SuperTable};
use da_core::ProcessId;
use rand::Rng;

/// The outcome of one dissemination decision. [`plan_dissemination`]
/// overwrites one in place, so a caller that keeps its plan around pays
/// for the two target buffers once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisseminationPlan {
    /// Whether the process elected itself as an inter-group link for at
    /// least one supertopic table.
    pub elected: bool,
    /// Supertable entries chosen to receive the event, table by table
    /// (empty when not elected or when each per-entry `p_a` draw failed).
    pub super_targets: Vec<SuperEntry>,
    /// Distinct topic-table members chosen for intra-group gossip.
    pub gossip_targets: Vec<ProcessId>,
}

impl DisseminationPlan {
    /// Total number of event messages this plan will emit.
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.super_targets.len() + self.gossip_targets.len()
    }
}

/// Draws one dissemination plan (Fig. 7) into `plan`, replacing whatever
/// it held and reusing its buffers.
///
/// `group` holds `p_sel`, `p_a` and the gossip fanout, computed once from
/// its `S_Ti` and parameters. `topic_table` is the process' current view
/// of its group; `super_tables` its supertopic tables, one per direct
/// supertopic. The election and spray run once per table, in order, then
/// the gossip draw once.
pub fn plan_dissemination<R: Rng>(
    group: &Group,
    topic_table: &[ProcessId],
    super_tables: &[SuperTable],
    rng: &mut R,
    plan: &mut DisseminationPlan,
) {
    // (1) Inter-group forwarding: self-election, then per-entry spray.
    let (p_sel, p_a) = (group.p_sel(), group.p_a());
    plan.elected = false;
    plan.super_targets.clear();
    for table in super_tables {
        if table.is_empty() || p_sel <= 0.0 || !rng.gen_bool(p_sel) {
            continue;
        }
        plan.elected = true;
        for &entry in table.entries() {
            if p_a >= 1.0 || (p_a > 0.0 && rng.gen_bool(p_a)) {
                plan.super_targets.push(entry);
            }
        }
    }

    // (2) Intra-group gossip.
    draw_gossip_targets(group.fanout(), topic_table, rng, &mut plan.gossip_targets);
}

/// Fig. 7's intra-group step: `fanout` distinct members of
/// `topic_table`, uniformly at random, into `targets` (replacing what it
/// held). This is the paper's `Table − Ω` loop — a picked member leaves
/// the candidate set — as a partial Fisher–Yates over a copy of the
/// table: one draw per target kept, none for the members left behind.
fn draw_gossip_targets<R: Rng>(
    fanout: usize,
    topic_table: &[ProcessId],
    rng: &mut R,
    targets: &mut Vec<ProcessId>,
) {
    targets.clear();
    targets.extend_from_slice(topic_table);
    da_core::keep_random(targets, fanout, rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TopicParams;
    use da_core::rng_from_seed;
    use da_topics::{TopicHierarchy, TopicId};
    use std::sync::Arc;

    fn stable_with(n: u32) -> SuperTable {
        let entry = |i| SuperEntry {
            pid: ProcessId(1000 + i),
            topic: TopicId::ROOT,
        };
        SuperTable::from_entries((0..n).map(entry).collect())
    }

    fn table(n: u32) -> Vec<ProcessId> {
        (1..=n).map(ProcessId).collect()
    }

    /// A group of `group_size` at the root, run with `params`.
    fn group(params: &TopicParams, group_size: usize) -> Group {
        let hierarchy = Arc::new(TopicHierarchy::new());
        Group::new(TopicId::ROOT, hierarchy, *params, group_size)
    }

    /// A fresh plan per call — what the old by-value signature returned.
    fn plan_dissemination<R: Rng>(
        params: &TopicParams,
        group_size: usize,
        topic_table: &[ProcessId],
        super_tables: &[SuperTable],
        rng: &mut R,
    ) -> DisseminationPlan {
        let mut plan = DisseminationPlan::default();
        super::plan_dissemination(
            &group(params, group_size),
            topic_table,
            super_tables,
            rng,
            &mut plan,
        );
        plan
    }

    #[test]
    fn a_reused_plan_equals_a_fresh_one() {
        let params = TopicParams::paper_default().with_a(3.0);
        let stable = [stable_with(3)];
        let mut fresh_rng = rng_from_seed(10);
        let mut reuse_rng = rng_from_seed(10);
        let mut reused = DisseminationPlan::default();
        for (size, view) in [(1000, 30), (3, 2), (100, 0), (2, 12)] {
            let fresh = plan_dissemination(&params, size, &table(view), &stable, &mut fresh_rng);
            super::plan_dissemination(
                &group(&params, size),
                &table(view),
                &stable,
                &mut reuse_rng,
                &mut reused,
            );
            assert_eq!(reused, fresh, "S = {size}, |table| = {view}");
        }
    }

    #[test]
    fn gossip_targets_distinct_and_bounded_by_fanout() {
        let mut rng = rng_from_seed(1);
        let params = TopicParams::paper_default();
        let plan = plan_dissemination(&params, 1000, &table(30), &[stable_with(3)], &mut rng);
        // log10(1000) + 5 = 8.
        assert_eq!(plan.gossip_targets.len(), 8);
        let mut sorted = plan.gossip_targets.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "targets are distinct");
    }

    /// A leaf of the paper's 1,000-process group: a 28-entry table, a
    /// fanout of 8. With `a = z` the spray needs no draw, so a plan costs
    /// the election draw and one draw per gossip target kept — and each
    /// member is a target at rate 8/28.
    #[test]
    fn a_leaf_plan_draws_once_per_kept_target_and_picks_uniformly() {
        use rand::RngCore;
        const TRIALS: usize = 14_000;
        let params = TopicParams::paper_default().with_a(3.0);
        let stable = [stable_with(3)];
        let members = table(28);
        let mut rng = rng_from_seed(12);
        let mut chosen = [0usize; 28];
        for _ in 0..TRIALS {
            let mut by_hand = rng.clone();
            let plan = plan_dissemination(&params, 1000, &members, &stable, &mut rng);
            assert_eq!(plan.gossip_targets.len(), 8);
            for _ in 0..1 + 8 {
                by_hand.next_u64();
            }
            assert_eq!(rng.clone().next_u64(), by_hand.next_u64());
            for target in plan.gossip_targets {
                chosen[target.index() - 1] += 1;
            }
        }
        let p = 8.0 / 28.0;
        let expected = TRIALS as f64 * p;
        let sigma = (TRIALS as f64 * p * (1.0 - p)).sqrt();
        for (member, &n) in chosen.iter().enumerate() {
            assert!(
                (n as f64 - expected).abs() < 3.0 * sigma,
                "member {} chosen {n} times, expected {expected:.0} ± {:.0}",
                member + 1,
                3.0 * sigma
            );
        }
    }

    #[test]
    fn small_table_limits_gossip() {
        let mut rng = rng_from_seed(2);
        let params = TopicParams::paper_default();
        let plan = plan_dissemination(&params, 1000, &table(3), &[stable_with(3)], &mut rng);
        assert_eq!(plan.gossip_targets.len(), 3, "cannot exceed the table");
    }

    #[test]
    fn election_rate_close_to_p_sel() {
        // S = 100, g = 5 → p_sel = 0.05.
        let params = TopicParams::paper_default();
        let stable = [stable_with(3)];
        let mut rng = rng_from_seed(3);
        let trials = 20_000;
        let elected = (0..trials)
            .filter(|_| plan_dissemination(&params, 100, &table(10), &stable, &mut rng).elected)
            .count();
        let rate = elected as f64 / trials as f64;
        assert!(
            (rate - 0.05).abs() < 0.01,
            "election rate {rate} far from p_sel = 0.05"
        );
    }

    #[test]
    fn tiny_group_always_elects() {
        // S = 3 < g = 5 → p_sel clamps to 1.
        let params = TopicParams::paper_default();
        let stable = [stable_with(3)];
        let mut rng = rng_from_seed(4);
        for _ in 0..50 {
            let plan = plan_dissemination(&params, 3, &table(2), &stable, &mut rng);
            assert!(plan.elected);
        }
    }

    #[test]
    fn spray_respects_p_a() {
        // a = 1, z = 3 → each entry receives with probability 1/3; the
        // expected number of super targets per elected plan is 1.
        let params = TopicParams::paper_default().with_g(5.0);
        let stable = [stable_with(3)];
        let mut rng = rng_from_seed(5);
        let mut total = 0usize;
        let mut elected_count = 0usize;
        for _ in 0..20_000 {
            let plan = plan_dissemination(&params, 3, &table(2), &stable, &mut rng);
            if plan.elected {
                elected_count += 1;
                total += plan.super_targets.len();
            }
        }
        let avg = total as f64 / elected_count as f64;
        assert!((avg - 1.0).abs() < 0.05, "avg spray {avg}, expected ≈ 1");
    }

    #[test]
    fn a_equals_z_sprays_everyone() {
        let params = TopicParams::paper_default().with_a(3.0);
        let stable = [stable_with(3)];
        let mut rng = rng_from_seed(6);
        let plan = plan_dissemination(&params, 2, &table(1), &stable, &mut rng);
        assert!(plan.elected, "p_sel clamps to 1 for S=2 < g");
        assert_eq!(plan.super_targets.len(), 3, "p_a = 1 hits every entry");
    }

    #[test]
    fn empty_supertable_never_elects() {
        let params = TopicParams::paper_default();
        let stable = [SuperTable::with_capacity(3)];
        let mut rng = rng_from_seed(7);
        for _ in 0..100 {
            let plan = plan_dissemination(&params, 2, &table(5), &stable, &mut rng);
            assert!(!plan.elected);
            assert!(plan.super_targets.is_empty());
        }
    }

    #[test]
    fn empty_topic_table_no_gossip() {
        let params = TopicParams::paper_default();
        let mut rng = rng_from_seed(8);
        let plan = plan_dissemination(&params, 1000, &[], &[stable_with(2)], &mut rng);
        assert!(plan.gossip_targets.is_empty());
    }

    #[test]
    fn message_count_sums_both_channels() {
        let mut rng = rng_from_seed(9);
        let params = TopicParams::paper_default().with_a(3.0);
        let plan = plan_dissemination(&params, 3, &table(10), &[stable_with(3)], &mut rng);
        assert_eq!(
            plan.message_count(),
            plan.super_targets.len() + plan.gossip_targets.len()
        );
    }

    /// Two one-entry tables, for supertopics 1 and 2.
    fn two_tables() -> [SuperTable; 2] {
        [(10, 1), (20, 2)].map(|(pid, topic)| {
            SuperTable::from_entries(vec![SuperEntry {
                pid: ProcessId(pid),
                topic: TopicId::from_index(topic),
            }])
        })
    }

    #[test]
    fn plan_covers_every_table_when_forced() {
        // g ≥ S and a = z force p_sel = p_a = 1: every entry, table by
        // table.
        let params = TopicParams::paper_default()
            .with_g(100.0)
            .with_a(1.0)
            .with_z(1);
        let mut rng = rng_from_seed(3);
        let plan = plan_dissemination(&params, 2, &[ProcessId(1)], &two_tables(), &mut rng);
        assert!(plan.elected);
        let pids: Vec<ProcessId> = plan.super_targets.iter().map(|e| e.pid).collect();
        assert_eq!(pids, [ProcessId(10), ProcessId(20)]);
        assert_eq!(plan.gossip_targets, [ProcessId(1)]);
    }

    #[test]
    fn per_table_election_rate_matches_p_sel() {
        // S = 100, g = 5 → p_sel = 0.05, drawn once per table: each
        // table is sprayed at that rate, and both at its square.
        let params = TopicParams::paper_default().with_z(1).with_a(1.0);
        let tables = two_tables();
        let mut rng = rng_from_seed(4);
        let trials = 20_000;
        let (mut hits, mut both) = ([0usize; 2], 0usize);
        for _ in 0..trials {
            let plan = plan_dissemination(&params, 100, &[], &tables, &mut rng);
            for e in &plan.super_targets {
                hits[e.topic.index() - 1] += 1;
            }
            both += usize::from(plan.super_targets.len() == 2);
        }
        for n in hits {
            let rate = n as f64 / trials as f64;
            assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
        }
        // 0.05² · 20,000 = 50 ± 7.
        assert!((25..75).contains(&both), "{both} plans sprayed both tables");
    }

    #[test]
    fn no_table_never_elects() {
        // A root member holds no supertable: its plan draws the gossip
        // targets and nothing else.
        use rand::RngCore;
        let params = TopicParams::paper_default();
        let mut rng = rng_from_seed(7);
        let mut by_hand = rng.clone();
        let plan = plan_dissemination(&params, 1000, &table(30), &[], &mut rng);
        assert!(!plan.elected);
        assert!(plan.super_targets.is_empty());
        assert_eq!(plan.gossip_targets.len(), 8);
        for _ in 0..8 {
            by_hand.next_u64();
        }
        assert_eq!(rng.next_u64(), by_hand.next_u64());
    }
}
