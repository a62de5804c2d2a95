//! Reliability closed forms (Sec. VI-D and VI-E.3 of the paper).
//!
//! "By reliability we mean here the probability that every process
//! interested in topic Ti receives a given event published for Ti."
//!
//! daMulticast's reliability for a level-`j` group is the product, from
//! the publication group up to `j`, of the intra-group atomic-gossip
//! probability `e^{-e^{-c}}` and the inter-group propagation probability
//! `pit` (eq. 1 of the paper).

use crate::complexity::GroupLevel;
use crate::gossip_math::infected_fraction;

pub use crate::gossip_math::atomic_infection_probability;
pub use crate::gossip_math::atomic_infection_probability as intra_group_reliability;

/// `nbSuscProc = S · p_sel · π` — the expected number of processes of a
/// group that both received the event (`π`) and elected themselves to
/// forward it (Sec. VI-D).
fn susceptible_processes(level: &GroupLevel, pi: f64) -> f64 {
    level.s as f64 * level.p_sel() * pi.clamp(0.0, 1.0)
}

/// `pbNoIntGrpMsg = (1 − p_succ)^(nbSuscProc · p_a · z)` — the probability
/// that *no* event crosses from a group to its supergroup (Sec. VI-D).
fn pb_no_intergroup_msg(level: &GroupLevel, pi: f64) -> f64 {
    let exponent = susceptible_processes(level, pi) * level.p_a() * level.z as f64;
    (1.0 - level.p_succ).clamp(0.0, 1.0).powf(exponent)
}

/// `pit = 1 − pbNoIntGrpMsg` — the probability that at least one event
/// reaches the supergroup (Sec. VI-D).
#[must_use]
pub fn pit(level: &GroupLevel, pi: f64) -> f64 {
    1.0 - pb_no_intergroup_msg(level, pi)
}

/// `pit` with `π` derived from the epidemic fixpoint of the group's own
/// gossip (fanout `ln S + c`, discounted by `p_succ`).
#[must_use]
pub fn pit_derived(level: &GroupLevel) -> f64 {
    pit(level, infected_fraction(level.s, level.c, level.p_succ))
}

/// daMulticast end-to-end reliability (eq. 1 of the paper):
/// `∏_{i=publication..target} e^{-e^{-c_i}} · pit_i`, with the final
/// (target) group contributing only its intra-group factor — and the root
/// group, having no supergroup, never contributing a `pit`.
///
/// `levels` is ordered bottom-up from the publication group; the target is
/// the last entry. A single-entry slice reduces to plain gossip
/// reliability, the paper's no-hierarchy degenerate case.
///
/// ```
/// use da_analysis::complexity::GroupLevel;
/// use da_analysis::reliability::damulticast_reliability;
///
/// let chain = [
///     GroupLevel::paper_default(1000),
///     GroupLevel::paper_default(100),
///     GroupLevel::paper_default(10),
/// ];
/// let to_leaf = damulticast_reliability(&chain[..1]);
/// let to_root = damulticast_reliability(&chain);
/// assert!(to_root < to_leaf, "each hop multiplies in more risk");
/// assert!(to_root > 0.9, "but the paper's parameters keep it high");
/// ```
#[must_use]
pub fn damulticast_reliability(levels: &[GroupLevel]) -> f64 {
    let mut r = 1.0;
    for (i, level) in levels.iter().enumerate() {
        r *= atomic_infection_probability(level.c);
        let is_last = i + 1 == levels.len();
        if !is_last {
            r *= pit_derived(level);
        }
    }
    r.clamp(0.0, 1.0)
}

/// Gossip-broadcast reliability: `e^{-e^{-c}}` (Sec. VI-E.3 (a)).
#[must_use]
pub fn broadcast_reliability(c: f64) -> f64 {
    atomic_infection_probability(c)
}

/// Gossip-multicast reliability: `∏_i e^{-e^{-c_i}}` (Sec. VI-E.3 (b)) —
/// the event is gossiped independently per level, no fragile inter-group
/// links, but at the cost of per-level membership tables.
#[must_use]
pub fn multicast_reliability(cs: &[f64]) -> f64 {
    cs.iter()
        .map(|&c| atomic_infection_probability(c))
        .product()
}

/// Hierarchical gossip-broadcast reliability: `e^{-N·e^{-c1} - e^{-c2}}`
/// (Sec. VI-E.3 (c)) for `N` groups with intra-group constant `c1` and
/// inter-group constant `c2`.
#[must_use]
pub fn hierarchical_reliability(n_groups: usize, c1: f64, c2: f64) -> f64 {
    (-(n_groups as f64) * (-c1).exp() - (-c2).exp()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_chain() -> Vec<GroupLevel> {
        vec![
            GroupLevel::paper_default(1000),
            GroupLevel::paper_default(100),
            GroupLevel::paper_default(10),
        ]
    }

    #[test]
    fn susceptible_count_paper_values() {
        // S = 1000, p_sel = 0.005, π ≈ 1 → ≈ 5 susceptible forwarders.
        let n = susceptible_processes(&GroupLevel::paper_default(1000), 1.0);
        assert!((n - 5.0).abs() < 1e-9);
    }

    #[test]
    fn no_intergroup_msg_shrinks_with_z() {
        let mut level = GroupLevel::paper_default(1000);
        let p3 = pb_no_intergroup_msg(&level, 1.0);
        level.z = 6;
        // Larger table with same p_a = a/z: a=1 keeps the product a·p_succ
        // constant; raise a alongside to see the effect.
        level.a = 2.0;
        let p6 = pb_no_intergroup_msg(&level, 1.0);
        assert!(p6 < p3, "more spray → less chance of total loss");
    }

    #[test]
    fn pit_is_probability_and_increases_with_g() {
        let mut level = GroupLevel::paper_default(1000);
        let p_g5 = pit(&level, 1.0);
        assert!((0.0..=1.0).contains(&p_g5));
        level.g = 20.0;
        let p_g20 = pit(&level, 1.0);
        assert!(p_g20 > p_g5);
    }

    #[test]
    fn reliability_decreases_up_the_chain() {
        let chain = paper_chain();
        let r_t2 = damulticast_reliability(&chain[..1]);
        let r_t1 = damulticast_reliability(&chain[..2]);
        let r_t0 = damulticast_reliability(&chain);
        assert!(r_t2 > r_t1, "t2 {r_t2} vs t1 {r_t1}");
        assert!(r_t1 > r_t0, "t1 {r_t1} vs t0 {r_t0}");
        assert!(r_t0 > 0.0 && r_t2 <= 1.0);
    }

    #[test]
    fn single_group_degenerates_to_gossip() {
        // "In the extreme case where ... there is only one topic ... our
        // algorithm suffers no degradation" (Sec. I).
        let only = [GroupLevel::paper_default(500)];
        assert!((damulticast_reliability(&only) - broadcast_reliability(5.0)).abs() < 1e-12);
    }

    #[test]
    fn multicast_beats_damulticast_on_chains() {
        // Without fragile inter-group links, multicast's product is larger.
        let chain = paper_chain();
        let mc = multicast_reliability(&[5.0, 5.0, 5.0]);
        let da = damulticast_reliability(&chain);
        assert!(mc >= da);
    }

    #[test]
    fn hierarchical_penalised_by_group_count() {
        let few = hierarchical_reliability(5, 5.0, 5.0);
        let many = hierarchical_reliability(500, 5.0, 5.0);
        assert!(few > many);
        assert!((0.0..=1.0).contains(&many));
    }

    #[test]
    fn all_reliabilities_in_unit_interval() {
        for s in [2usize, 10, 1000] {
            for c in [0.0, 2.0, 5.0] {
                for g in [1.0, 5.0, 50.0] {
                    let level = GroupLevel {
                        s,
                        c,
                        g,
                        a: 1.0,
                        z: 3,
                        p_succ: 0.85,
                    };
                    let r = damulticast_reliability(&[level, GroupLevel::paper_default(10)]);
                    assert!((0.0..=1.0).contains(&r), "out of range: {r}");
                }
            }
        }
    }

    #[test]
    fn perfect_channels_make_pit_one() {
        let level = GroupLevel {
            p_succ: 1.0,
            ..GroupLevel::paper_default(1000)
        };
        assert!((pit(&level, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dead_group_never_propagates() {
        let level = GroupLevel::paper_default(1000);
        assert_eq!(pit(&level, 0.0), 0.0, "π = 0 → nothing to forward");
    }
}
