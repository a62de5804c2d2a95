//! Tuning equivalences (Sec. VI-E.3 and Appendix 2 of the paper):
//! for each baseline, the constant `c1` that daMulticast must use to match
//! the baseline's reliability run with constant `c`, the validity range of
//! `c` for which such a `c1 ≥ 0` exists, and the bound on the supertable
//! size `z` below which daMulticast's memory still wins.
//!
//! Conventions follow the appendix: all levels share the same constants
//! (`c1_Ti = c1`, `pit_Ti = pit`, `S_Ti = S_T`, `z_Ti = z` — "the average
//! case"), `t` is the hierarchy depth, `N` the number of groups of the
//! hierarchical baseline, `n` the total population.

/// A closed interval `[lo, hi]` of admissible `c` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CRange {
    /// Inclusive lower end.
    pub lo: f64,
    /// Exclusive upper end (the equivalence degenerates at the bound).
    pub hi: f64,
}

impl CRange {
    /// True when `c` lies in the range.
    #[must_use]
    pub fn contains(&self, c: f64) -> bool {
        c >= self.lo && c < self.hi
    }

    /// True when the range is non-degenerate.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.lo < self.hi
    }
}

// --- (b) gossip-based multicast -------------------------------------------

/// Validity range of `c` against gossip multicast:
/// `0 ≤ c < −ln(−ln(pit))` (Appendix 2a, conditions ①–③).
///
/// Empty (lo ≥ hi) when `pit ≤ 1/e`, where no `c1` can compensate.
#[must_use]
pub fn multicast_c_range(pit: f64) -> CRange {
    CRange {
        lo: 0.0,
        hi: safe_upper(-(-pit.ln()).ln()),
    }
}

/// `c1 = c − ln(1 + e^c·ln(pit))` (Appendix eq. 16): daMulticast with
/// constant `c1` matches gossip multicast run with constant `c`.
///
/// Returns `None` when `c` is outside [`multicast_c_range`].
#[must_use]
pub fn c1_vs_multicast(c: f64, pit: f64) -> Option<f64> {
    if pit >= 1.0 {
        // Condition ③: pit = 1 makes the levels equivalent as-is.
        return Some(c);
    }
    if !multicast_c_range(pit).contains(c) {
        return None;
    }
    let inner = 1.0 + c.exp() * pit.ln();
    (inner > 0.0).then(|| c - inner.ln())
}

/// Maximum `z` for which daMulticast's memory also beats gossip
/// multicast's: `z ≤ (t−1)(ln S_T + c) + ln(1 + e^c ln(pit))`
/// (Appendix eq. 19).
#[must_use]
pub fn z_bound_vs_multicast(t: usize, s_t: usize, c: f64, pit: f64) -> f64 {
    (t as f64 - 1.0) * ((s_t as f64).ln() + c) + (1.0 + c.exp() * pit.ln()).ln()
}

// --- (a) gossip-based broadcast -------------------------------------------

/// Validity range of `c` against gossip broadcast:
/// `0 ≤ c < −ln(−t·ln(pit))` (Appendix 2b).
#[must_use]
pub fn broadcast_c_range(t: usize, pit: f64) -> CRange {
    CRange {
        lo: 0.0,
        hi: safe_upper(-(-(t as f64) * pit.ln()).ln()),
    }
}

/// `c1 = c − ln(1 + t·e^c·ln(pit)) + ln(t)` (Appendix eq. 23): daMulticast
/// with constant `c1` matches gossip broadcast run with constant `c`.
///
/// Returns `None` when `c` is outside [`broadcast_c_range`].
#[must_use]
pub fn c1_vs_broadcast(c: f64, t: usize, pit: f64) -> Option<f64> {
    if !broadcast_c_range(t, pit).contains(c) {
        return None;
    }
    let t = t as f64;
    let inner = 1.0 + t * c.exp() * pit.ln();
    (inner > 0.0).then(|| c - inner.ln() + t.ln())
}

/// Maximum `z` for which daMulticast's memory also beats broadcast's:
/// `z ≤ ln(n) + ln(1 + t·e^c·ln(pit)) − ln(S_T) − ln(t)` (Appendix
/// eq. 25). A gain needs `ln(n) > ln(S_T) + ln(t)` — the population must
/// dwarf the single interest group.
#[must_use]
pub fn z_bound_vs_broadcast(n: usize, s_t: usize, t: usize, c: f64, pit: f64) -> f64 {
    (n as f64).ln() + (1.0 + t as f64 * c.exp() * pit.ln()).ln()
        - (s_t as f64).ln()
        - (t as f64).ln()
}

// --- (c) hierarchical gossip-based broadcast -------------------------------

/// Validity range of `c` against hierarchical broadcast:
/// `−ln(t(1 − ln(pit)) / (N+1)) ≤ c < −ln(−t·ln(pit) / (N+1))`
/// (Appendix 2c). The lower end is clamped at 0 (c must be non-negative).
#[must_use]
pub fn hierarchical_c_range(t: usize, n_groups: usize, pit: f64) -> CRange {
    let t = t as f64;
    let np1 = n_groups as f64 + 1.0;
    let lo = -(t * (1.0 - pit.ln()) / np1).ln();
    CRange {
        lo: lo.max(0.0),
        hi: safe_upper(-(-t * pit.ln() / np1).ln()),
    }
}

/// `c_T = ln(t) + c − ln(t·e^c·ln(pit) + N + 1)` (Appendix eq. 28):
/// daMulticast with constant `c_T` matches hierarchical broadcast run with
/// `c1 = c2 = c` over `N` groups.
///
/// Returns `None` when `c` is outside [`hierarchical_c_range`].
#[must_use]
pub fn c1_vs_hierarchical(c: f64, t: usize, n_groups: usize, pit: f64) -> Option<f64> {
    if !hierarchical_c_range(t, n_groups, pit).contains(c) {
        return None;
    }
    let t = t as f64;
    let inner = t * c.exp() * pit.ln() + n_groups as f64 + 1.0;
    (inner > 0.0).then(|| t.ln() + c - inner.ln())
}

/// Maximum `z` for which daMulticast's memory also beats the hierarchical
/// baseline's: `z ≤ c + ln(N) + ln(N + 1 + t·e^c·ln(pit)) − ln(t)`
/// (Appendix eq. 30).
#[must_use]
pub fn z_bound_vs_hierarchical(n_groups: usize, t: usize, c: f64, pit: f64) -> f64 {
    let tf = t as f64;
    c + (n_groups as f64).ln() + (n_groups as f64 + 1.0 + tf * c.exp() * pit.ln()).ln() - tf.ln()
}

/// NaN-safe upper bound: `ln` of a non-positive argument means "no valid
/// upper end" — collapse the range to empty.
fn safe_upper(hi: f64) -> f64 {
    if hi.is_nan() {
        f64::NEG_INFINITY
    } else {
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip_math::atomic_infection_probability;
    use crate::reliability::{
        broadcast_reliability, hierarchical_reliability, multicast_reliability,
    };

    const PIT: f64 = 0.99;

    /// daMulticast per-level reliability with constant c1 and link pit.
    fn da_level(c1: f64, pit: f64) -> f64 {
        atomic_infection_probability(c1) * pit
    }

    /// daMulticast reliability over `t` levels that all use `c1` and `pit`.
    fn da_chain(c1: f64, t: usize, pit: f64) -> f64 {
        da_level(c1, pit).powi(t as i32)
    }

    #[test]
    fn multicast_equivalence_is_exact_per_level() {
        // e^{-e^{-c1}}·pit must equal e^{-e^{-c}} inside the range, so
        // over t levels daMulticast matches gossip multicast (eq. 16).
        let t = 3;
        for c in [0.0, 0.5, 1.0, 2.0, 4.0] {
            if let Some(c1) = c1_vs_multicast(c, PIT) {
                let lhs = da_level(c1, PIT);
                let rhs = atomic_infection_probability(c);
                assert!(
                    (lhs - rhs).abs() < 1e-12,
                    "c={c}: da {lhs} != multicast {rhs}"
                );
                let (da, baseline) = (da_chain(c1, t, PIT), multicast_reliability(&vec![c; t]));
                assert!((da - baseline).abs() < 1e-9, "c={c}: {da} vs {baseline}");
                assert!(c1 >= 0.0, "c1 must be non-negative, got {c1}");
                assert!(c1 >= c, "compensating pit < 1 needs a larger constant");
            }
        }
    }

    #[test]
    fn multicast_range_boundary() {
        let range = multicast_c_range(PIT);
        assert!(range.is_valid());
        // Just below the bound works, the bound itself does not.
        assert!(c1_vs_multicast(range.hi - 1e-6, PIT).is_some());
        assert!(c1_vs_multicast(range.hi, PIT).is_none());
        assert!(c1_vs_multicast(-0.1, PIT).is_none());
    }

    #[test]
    fn multicast_low_pit_has_no_solution() {
        // pit ≤ 1/e → −ln(−ln(pit)) ≤ 0 → empty range.
        let range = multicast_c_range(0.3);
        assert!(!range.is_valid());
        assert!(c1_vs_multicast(2.0, 0.3).is_none());
    }

    #[test]
    fn multicast_pit_one_identity() {
        assert_eq!(c1_vs_multicast(3.0, 1.0), Some(3.0));
    }

    #[test]
    fn broadcast_equivalence_satisfies_appendix_identity() {
        // Eq. (22): e^{-c1} − ln(pit) = e^{-c} / t.
        let t = 3;
        for c in [0.0, 0.5, 1.0, 1.5] {
            if let Some(c1) = c1_vs_broadcast(c, t, PIT) {
                let lhs = (-c1).exp() - PIT.ln();
                let rhs = (-c).exp() / t as f64;
                assert!(
                    (lhs - rhs).abs() < 1e-12,
                    "c={c}: identity violated ({lhs} vs {rhs})"
                );
                // Eq. 23: so daMulticast over t levels matches broadcast.
                let (da, baseline) = (da_chain(c1, t, PIT), broadcast_reliability(c));
                assert!((da - baseline).abs() < 1e-9, "c={c}: {da} vs {baseline}");
                assert!(c1 >= 0.0);
            }
        }
    }

    #[test]
    fn broadcast_range_shrinks_with_depth() {
        let r1 = broadcast_c_range(1, PIT);
        let r5 = broadcast_c_range(5, PIT);
        assert!(r1.hi > r5.hi, "deeper hierarchies are harder to match");
    }

    #[test]
    fn hierarchical_equivalence_satisfies_appendix_identity() {
        // Eq. (27): t·e^{-cT} − t·ln(pit) = (N+1)·e^{-c}.
        let (t, n_groups) = (3, 10);
        let range = hierarchical_c_range(t, n_groups, PIT);
        assert!(range.is_valid());
        let c = (range.lo + range.hi) / 2.0;
        let c_t = c1_vs_hierarchical(c, t, n_groups, PIT).expect("mid-range c is valid");
        let lhs = t as f64 * ((-c_t).exp() - PIT.ln());
        let rhs = (n_groups as f64 + 1.0) * (-c).exp();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
        // Eq. 28: so daMulticast over t levels matches the hierarchical
        // baseline run with c1 = c2 = c.
        let (da, baseline) = (
            da_chain(c_t, t, PIT),
            hierarchical_reliability(n_groups, c, c),
        );
        assert!((da - baseline).abs() < 1e-9, "{da} vs {baseline}");
        assert!(c_t >= 0.0);
    }

    #[test]
    fn hierarchical_out_of_range_rejected() {
        let (t, n_groups) = (3, 10);
        let range = hierarchical_c_range(t, n_groups, PIT);
        assert!(c1_vs_hierarchical(range.lo - 0.1, t, n_groups, PIT).is_none());
        assert!(c1_vs_hierarchical(range.hi + 0.1, t, n_groups, PIT).is_none());
    }

    #[test]
    fn z_bounds_paper_shapes() {
        // vs multicast: deeper chains leave more memory headroom (eq. 19
        // grows with t).
        let z3 = z_bound_vs_multicast(3, 1000, 2.0, PIT);
        let z5 = z_bound_vs_multicast(5, 1000, 2.0, PIT);
        assert!(z5 > z3);
        assert!(z3 > 3.0, "the paper's z = 3 fits comfortably");

        // vs broadcast: gain requires n ≫ S_T · t.
        let gain = z_bound_vs_broadcast(1_000_000, 1000, 3, 1.0, PIT);
        let no_gain = z_bound_vs_broadcast(1100, 1000, 3, 1.0, PIT);
        assert!(gain > 0.0);
        assert!(no_gain < gain);

        // vs hierarchical: more groups leave more headroom.
        let z10 = z_bound_vs_hierarchical(10, 3, 1.0, PIT);
        let z100 = z_bound_vs_hierarchical(100, 3, 1.0, PIT);
        assert!(z100 > z10);
    }

    #[test]
    fn ranges_never_contain_nan() {
        for pit in [0.01, 0.3, 0.69, 0.95, 0.999_999] {
            for t in [1usize, 2, 5] {
                assert!(!broadcast_c_range(t, pit).lo.is_nan());
                assert!(!broadcast_c_range(t, pit).hi.is_nan());
                assert!(!multicast_c_range(pit).hi.is_nan());
                for n in [1usize, 10, 100] {
                    let r = hierarchical_c_range(t, n, pit);
                    assert!(!r.lo.is_nan() && !r.hi.is_nan());
                }
            }
        }
    }
}
