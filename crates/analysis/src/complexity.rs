//! Message-complexity closed forms (Sec. VI-B and Appendix 1 of the
//! paper).
//!
//! All counts are *expected numbers of event messages for one
//! publication*, climbing from the publication level to the root. Group
//! levels are indexed like the paper: index 0 is the bottom-most group
//! (`T_t`), the last index is the root (`T_0`) — callers supply a slice
//! ordered bottom-up.

/// Per-group parameters entering the complexity formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupLevel {
    /// Group size `S_Ti`.
    pub s: usize,
    /// Gossip constant `c_Ti` (fanout `ln(S) + c`).
    pub c: f64,
    /// Link-election weight `g_Ti` (`p_sel = g / S`).
    pub g: f64,
    /// Spray weight `a_Ti` (`p_a = a / z`).
    pub a: f64,
    /// Supertable size `z_Ti`.
    pub z: usize,
    /// Channel success probability `p_succ_Ti`.
    pub p_succ: f64,
}

impl GroupLevel {
    /// The paper's Sec. VII-A parameters for a group of size `s`.
    #[must_use]
    pub fn paper_default(s: usize) -> Self {
        GroupLevel {
            s,
            c: 5.0,
            g: 5.0,
            a: 1.0,
            z: 3,
            p_succ: 0.85,
        }
    }

    /// `p_sel = g / S`, clamped to `[0, 1]`.
    #[must_use]
    pub fn p_sel(&self) -> f64 {
        if self.s == 0 {
            0.0
        } else {
            (self.g / self.s as f64).clamp(0.0, 1.0)
        }
    }

    /// `p_a = a / z`, clamped to `[0, 1]`.
    #[must_use]
    pub fn p_a(&self) -> f64 {
        if self.z == 0 {
            0.0
        } else {
            (self.a / self.z as f64).clamp(0.0, 1.0)
        }
    }
}

/// Expected intra-group messages in one group: `S · (ln S + c)`
/// (Sec. VI-B: "the overall number of events sent in the group Ti is thus
/// upper bounded by `S_Ti · (ln(S_Ti) + c_Ti)`").
fn intra_group_messages(s: usize, c: f64) -> f64 {
    if s == 0 {
        return 0.0;
    }
    s as f64 * ((s as f64).ln() + c)
}

/// Expected messages crossing from one group to its supergroup:
/// `nbSuperMsg = S · p_sel · p_a · z · p_succ` (Sec. VI-B).
#[must_use]
pub fn intergroup_messages(level: &GroupLevel) -> f64 {
    level.s as f64 * level.p_sel() * level.p_a() * level.z as f64 * level.p_succ
}

/// Total expected messages for one publication climbing the whole chain:
/// `Σ_i S_i(ln S_i + c_i) + Σ_{i<root} S_i·p_sel·p_a·p_succ·z`
/// (Sec. VI-B; the second sum skips the root, which has no supergroup).
///
/// `levels` is ordered bottom-up: `levels[0]` is the publication group,
/// the last entry the root group.
#[must_use]
pub fn damulticast_messages(levels: &[GroupLevel]) -> f64 {
    let intra: f64 = levels.iter().map(|l| intra_group_messages(l.s, l.c)).sum();
    let inter: f64 = levels
        .iter()
        .take(levels.len().saturating_sub(1)) // root forwards nowhere
        .map(intergroup_messages)
        .sum();
    intra + inter
}

/// Gossip-broadcast message count: `n · (ln n + c)` (Appendix eq. 7).
#[must_use]
pub fn broadcast_messages(n: usize, c: f64) -> f64 {
    intra_group_messages(n, c)
}

/// Gossip-multicast message count: `Σ_i S_i (ln S_i + c_i)` (Appendix
/// eq. 3) — the event is gossiped independently in every group of the
/// chain, with no inter-group forwarding cost.
#[must_use]
pub fn multicast_messages(levels: &[GroupLevel]) -> f64 {
    levels.iter().map(|l| intra_group_messages(l.s, l.c)).sum()
}

/// Hierarchical gossip-broadcast message count:
/// `N · m · (ln N + ln m + c1 + c2)` (Appendix eq. 10), where `N` is the
/// number of interest-oblivious groups and `m` the processes per group.
#[must_use]
pub fn hierarchical_messages(n_groups: usize, m: usize, c1: f64, c2: f64) -> f64 {
    if n_groups == 0 || m == 0 {
        return 0.0;
    }
    (n_groups * m) as f64 * ((n_groups as f64).ln() + (m as f64).ln() + c1 + c2)
}

/// The paper's worst-case bound
/// `t · S_Tmax · ln(S_Tmax) · (1 + c_max + z_max)` (Sec. VI-B) — every
/// concrete count must stay below it.
///
/// Erratum: bounding `S · (ln S + c)` by `S · ln S · (1 + c)` needs
/// `ln S ≥ 1`, which a largest group of one or two members breaks, so
/// `max(ln S_Tmax, 1)` stands in for `ln S_Tmax` (the same from S = 3).
#[must_use]
pub fn damulticast_upper_bound(t: usize, s_max: usize, c_max: f64, z_max: usize) -> f64 {
    t as f64 * s_max as f64 * (s_max as f64).ln().max(1.0) * (1.0 + c_max + z_max as f64)
}

/// `S_Tmax` of a chain — the size of its biggest group.
#[must_use]
pub fn s_max(levels: &[GroupLevel]) -> usize {
    levels.iter().map(|l| l.s).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Sec. VII-A chain, bottom-up: T2, T1, T0.
    fn paper_chain() -> Vec<GroupLevel> {
        vec![
            GroupLevel::paper_default(1000),
            GroupLevel::paper_default(100),
            GroupLevel::paper_default(10),
        ]
    }

    #[test]
    fn intra_matches_hand_computation() {
        // 1000 · (ln 1000 + 5) = 1000 · 11.9078
        let v = intra_group_messages(1000, 5.0);
        assert!((v - 11_907.755).abs() < 1e-2);
        assert_eq!(intra_group_messages(0, 5.0), 0.0);
    }

    #[test]
    fn intergroup_matches_paper_expectation() {
        // S·p_sel·p_a·z·p_succ = 1000·0.005·(1/3)·3·0.85 = 4.25.
        let v = intergroup_messages(&GroupLevel::paper_default(1000));
        assert!((v - 4.25).abs() < 1e-12);
    }

    #[test]
    fn total_is_intra_plus_inter_without_root() {
        let chain = paper_chain();
        let total = damulticast_messages(&chain);
        let intra: f64 = chain.iter().map(|l| intra_group_messages(l.s, l.c)).sum();
        let inter = intergroup_messages(&chain[0]) + intergroup_messages(&chain[1]);
        assert!((total - (intra + inter)).abs() < 1e-9);
    }

    #[test]
    fn total_stays_below_paper_bound() {
        let chain = paper_chain();
        let total = damulticast_messages(&chain);
        let bound = damulticast_upper_bound(3, s_max(&chain), 5.0, 3);
        assert!(total <= bound, "total {total} exceeds bound {bound}");
    }

    #[test]
    fn broadcast_dominates_when_population_large() {
        // n = 1110 processes all in one group vs the data-aware chain.
        let chain = paper_chain();
        let da = damulticast_messages(&chain);
        let bc = broadcast_messages(1110, 5.0);
        assert!(
            bc > da,
            "broadcast ({bc}) should cost more than daMulticast ({da})"
        );
    }

    #[test]
    fn multicast_equals_damulticast_minus_links() {
        let chain = paper_chain();
        let mc = multicast_messages(&chain);
        let da = damulticast_messages(&chain);
        assert!(da > mc, "daMulticast adds only the inter-group messages");
        assert!((da - mc) < 10.0, "inter-group overhead is a few messages");
    }

    #[test]
    fn hierarchical_formula() {
        // N = 10 groups of m = 111: N·m(ln N + ln m + c1 + c2).
        let v = hierarchical_messages(10, 111, 5.0, 5.0);
        let expect = 1110.0 * (10.0f64.ln() + 111.0f64.ln() + 10.0);
        assert!((v - expect).abs() < 1e-9);
        assert_eq!(hierarchical_messages(0, 5, 1.0, 1.0), 0.0);
    }

    #[test]
    fn complexity_scales_as_s_ln_s() {
        // Ratio (messages / S·lnS) must stay bounded as S grows.
        let ratio = |s: usize| {
            let chain = vec![GroupLevel::paper_default(s)];
            damulticast_messages(&chain) / (s as f64 * (s as f64).ln())
        };
        let r3 = ratio(1_000);
        let r6 = ratio(1_000_000);
        assert!(r6 < r3, "the c-term amortises as S grows");
        assert!(r6 > 1.0, "but the S·lnS core remains");
    }

    #[test]
    fn probabilities_clamped() {
        let tiny = GroupLevel {
            s: 2,
            c: 5.0,
            g: 100.0,
            a: 50.0,
            z: 3,
            p_succ: 1.0,
        };
        assert_eq!(tiny.p_sel(), 1.0);
        assert_eq!(tiny.p_a(), 1.0);
        let zero = GroupLevel {
            s: 0,
            z: 0,
            ..GroupLevel::paper_default(0)
        };
        assert_eq!(zero.p_sel(), 0.0);
        assert_eq!(zero.p_a(), 0.0);
    }
}
