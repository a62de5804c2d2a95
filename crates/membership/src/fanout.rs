//! View sizing and gossip fanout rules.

/// Size of a KMG partial view: `⌈(b + 1)·ln(S)⌉`, capped at `S − 1`
/// (a process never lists itself).
///
/// This is the topic-table size of the paper (Sec. V-A.1: "tables of size
/// `(b_Ti + 1)·ln(S_Ti)`").
///
/// ```
/// use da_membership::kmg_view_size;
/// assert_eq!(kmg_view_size(3.0, 1000), 28); // (3+1)·6.907 ≈ 27.6 → 28
/// assert_eq!(kmg_view_size(3.0, 1), 0);     // nobody else to know
/// ```
#[must_use]
pub fn kmg_view_size(b: f64, group_size: usize) -> usize {
    if group_size <= 1 {
        return 0;
    }
    let ideal = ((b + 1.0) * (group_size as f64).ln()).ceil() as usize;
    ideal.min(group_size - 1)
}

/// How many group members an infected process gossips an event to.
///
/// The paper's analysis uses `ln(S) + c`; the pseudo-code (Fig. 7, line 9)
/// and the magnitudes plotted in Fig. 8 correspond to `log10(S) + c`
/// (fanout 8 for `S = 1000`, `c = 5`). Both are provided, along with a
/// fixed fanout for ablations; the fanout is `⌊log(S) + c⌋`, capped at
/// `S − 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FanoutRule {
    /// `⌊ln(S) + c⌋` — the analysis' natural-log rule.
    LnPlusC {
        /// The additive reliability constant `c` of the paper.
        c: f64,
    },
    /// `⌊log10(S) + c⌋` — the rule matching the paper's plotted magnitudes.
    Log10PlusC {
        /// The additive reliability constant `c` of the paper.
        c: f64,
    },
    /// A constant fanout, for ablation studies.
    Fixed(usize),
}

impl FanoutRule {
    /// Evaluates the rule for a group of `group_size` processes.
    #[must_use]
    pub fn fanout(&self, group_size: usize) -> usize {
        if group_size <= 1 {
            return 0;
        }
        let raw = match self {
            FanoutRule::LnPlusC { c } => ((group_size as f64).ln() + c).floor() as usize,
            FanoutRule::Log10PlusC { c } => ((group_size as f64).log10() + c).floor() as usize,
            FanoutRule::Fixed(k) => *k,
        };
        raw.min(group_size - 1)
    }

    /// The additive constant `c`, when the rule has one.
    #[must_use]
    pub fn c(&self) -> Option<f64> {
        match self {
            FanoutRule::LnPlusC { c } | FanoutRule::Log10PlusC { c } => Some(*c),
            FanoutRule::Fixed(_) => None,
        }
    }
}

impl Default for FanoutRule {
    /// The paper's analysis rule with its simulation constant `c = 5`.
    fn default() -> Self {
        FanoutRule::LnPlusC { c: 5.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmg_view_size_matches_paper_setting() {
        // b = 3 in the simulation.
        assert_eq!(kmg_view_size(3.0, 1000), 28);
        assert_eq!(kmg_view_size(3.0, 100), 19); // 4·4.605 = 18.4 → 19
        assert_eq!(kmg_view_size(3.0, 10), 9); // 4·2.302 = 9.2 → 10, capped at 9
    }

    #[test]
    fn kmg_view_size_degenerate_groups() {
        assert_eq!(kmg_view_size(3.0, 0), 0);
        assert_eq!(kmg_view_size(3.0, 1), 0);
        assert_eq!(kmg_view_size(3.0, 2), 1);
    }

    #[test]
    fn fanout_rules_paper_values() {
        let log10 = FanoutRule::Log10PlusC { c: 5.0 };
        assert_eq!(log10.fanout(1000), 8);
        assert_eq!(log10.fanout(100), 7);
        assert_eq!(log10.fanout(10), 6);
        let ln = FanoutRule::LnPlusC { c: 5.0 };
        assert_eq!(ln.fanout(1000), 11); // 6.907 + 5 = 11.9 → 11
        assert_eq!(ln.fanout(100), 9);
    }

    #[test]
    fn fanout_capped_by_group() {
        assert_eq!(FanoutRule::Fixed(50).fanout(10), 9);
        assert_eq!(FanoutRule::LnPlusC { c: 5.0 }.fanout(2), 1);
        assert_eq!(FanoutRule::Fixed(3).fanout(1), 0);
        assert_eq!(FanoutRule::Fixed(3).fanout(0), 0);
    }

    #[test]
    fn c_accessor() {
        assert_eq!(FanoutRule::LnPlusC { c: 2.0 }.c(), Some(2.0));
        assert_eq!(FanoutRule::Fixed(4).c(), None);
    }

    #[test]
    fn default_is_analysis_rule() {
        assert_eq!(FanoutRule::default(), FanoutRule::LnPlusC { c: 5.0 });
    }
}
