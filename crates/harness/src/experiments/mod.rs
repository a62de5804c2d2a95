//! One module per figure/table of the paper's evaluation, plus the
//! ablations and extensions ARCHITECTURE.md lists under "Where the paper's
//! figures live". Every module exposes a `run` function returning
//! renderable tables; [`artifacts`] fixes each one's seed and parameters,
//! and `run_all` calls every one of them.

pub mod ablations;
pub mod artifacts;
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
    /// Parses a binary's arguments, program name excluded: `--quick`
    /// selects [`Effort::Quick`], its absence [`Effort::Paper`].
    ///
    /// # Errors
    ///
    /// The first argument that is neither `--quick` nor one of the
    /// binary's own `flags`.
    pub fn parse<'a>(args: &'a [String], flags: &[&str]) -> Result<Self, &'a str> {
        let unknown = |arg: &&String| *arg != "--quick" && !flags.contains(&arg.as_str());
        if let Some(arg) = args.iter().find(unknown) {
            return Err(arg);
        }
        Ok(if args.iter().any(|arg| arg == "--quick") {
            Effort::Quick
        } else {
            Effort::Paper
        })
    }

    /// [`Effort::parse`] over the process's arguments. An unknown one
    /// prints `usage` to stderr and exits with status 2.
    #[must_use]
    pub fn from_args(flags: &[&str], usage: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Effort::parse(&args, flags).unwrap_or_else(|unknown| {
            eprintln!("unknown argument `{unknown}`\n{usage}");
            std::process::exit(2)
        })
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

    #[test]
    fn parse_accepts_quick_and_the_binarys_own_flags_only() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|&a| a.to_owned()).collect() };
        assert_eq!(Effort::parse(&args(&[]), &[]), Ok(Effort::Paper));
        assert_eq!(Effort::parse(&args(&["--quick"]), &[]), Ok(Effort::Quick));
        let json = args(&["--json", "--quick"]);
        assert_eq!(Effort::parse(&json, &["--json"]), Ok(Effort::Quick));
        assert_eq!(Effort::parse(&json, &[]), Err("--json"), "not run_all's");
        let typo = args(&["--quik"]);
        assert_eq!(Effort::parse(&typo, &["--json"]), Err("--quik"));
        let artifact = args(&["--quick", "fig08"]);
        assert_eq!(Effort::parse(&artifact, &[]), Err("fig08"));
    }
}
