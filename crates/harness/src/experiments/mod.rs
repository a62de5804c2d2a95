//! One module per figure/table of the paper's evaluation, plus the
//! ablations and extensions ARCHITECTURE.md lists under "Where the paper's
//! figures live". Every module exposes a `run` function returning
//! renderable tables; the `bin/` targets are thin wrappers.

pub mod ablations;
pub mod dynamics;
pub mod figures;
pub mod live;
pub mod mc;
pub mod parasites;
pub mod scaling;
pub mod tables;
pub mod trace;

/// Shared sweep axis of Figs. 8–11: the fraction of alive processes,
/// 0.0 to 1.0 in steps of 0.05 (the paper's x-axis).
#[must_use]
pub fn alive_fractions() -> Vec<f64> {
    (0..=20).map(|i| f64::from(i) * 0.05).collect()
}

/// Effort preset for experiment binaries: `quick` for smoke runs and CI,
/// `paper` for full-scale reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Scaled-down topology, few trials — seconds.
    Quick,
    /// The paper's 1110-process topology, many trials — minutes.
    Paper,
}

impl Effort {
    /// Parses process arguments: `--quick` selects [`Effort::Quick`];
    /// default is [`Effort::Paper`].
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Effort::Quick
        } else {
            Effort::Paper
        }
    }

    /// Trials per sweep point.
    #[must_use]
    pub fn trials(self) -> usize {
        match self {
            Effort::Quick => 5,
            Effort::Paper => 20,
        }
    }

    /// The scenario preset.
    #[must_use]
    pub fn scenario(self) -> crate::scenario::ScenarioConfig {
        match self {
            Effort::Quick => crate::scenario::ScenarioConfig::small(),
            Effort::Paper => crate::scenario::ScenarioConfig::paper_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_axis_matches_paper() {
        let xs = alive_fractions();
        assert_eq!(xs.len(), 21);
        assert_eq!(xs[0], 0.0);
        assert!((xs[20] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn effort_presets() {
        assert!(Effort::Paper.trials() > Effort::Quick.trials());
        assert_eq!(Effort::Quick.scenario().group_sizes, vec![5, 20, 100]);
        assert_eq!(Effort::Paper.scenario().group_sizes, vec![10, 100, 1000]);
    }
}
