//! Bounded model checking of single-group dissemination: drives the
//! protocol through **all** interleavings, per-envelope drop choices
//! and crash points of a small network, asserting the safety
//! invariants in every reachable state.
//!
//! Usage: `cargo run --release -p da-harness --bin mc_explore --
//! [--procs N] [--rounds N] [--drops N] [--crashes N]
//! [--ordering fixed|por|full] [--max-states N] [--mutant]`
//!
//! Defaults reproduce the acceptance scenario: 3 processes, 6 rounds,
//! 1 drop, 1 crash, full ordering. `--mutant` runs the
//! `Mutation::SkipDedup` variant instead, which must *fail*; the exit
//! code is non-zero whenever the run's verdict is unexpected
//! (violation on the shipped protocol, or a clean pass of the mutant):
//! 1 for such a verdict, 2 for an argument outside the usage line.

use da_harness::experiments::mc::{base_config, dissemination_explorer, single_group};
use da_simnet::mc::{McConfig, OrderingMode};
use damulticast::Mutation;
use std::process::ExitCode;

const USAGE: &str = "usage: mc_explore [--procs N] [--rounds N] [--drops N] [--crashes N] \
                     [--ordering fixed|por|full] [--max-states N] [--mutant]";

/// What one run explores.
#[derive(Debug, PartialEq)]
struct Options {
    population: usize,
    config: McConfig,
    mutation: Mutation,
}

/// `value` as the number `flag` wants.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` wants a number, got `{value}`"))
}

/// Reads the arguments, program name excluded. Anything but the usage
/// line's flags, each value flag followed by a value of its kind, is an
/// error naming the culprit.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        population: 3,
        config: McConfig {
            drop_budget: 1,
            crash_budget: 1,
            ..McConfig::default()
        },
        mutation: Mutation::None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{flag}` wants a value"));
        let config = &mut options.config;
        match flag.as_str() {
            "--procs" => options.population = number(flag, value()?)?,
            "--rounds" => config.max_rounds = number(flag, value()?)?,
            "--drops" => config.drop_budget = number(flag, value()?)?,
            "--crashes" => config.crash_budget = number(flag, value()?)?,
            "--max-states" => config.max_states = number(flag, value()?)?,
            "--ordering" => {
                config.ordering = match value()?.as_str() {
                    "full" => OrderingMode::Full,
                    "por" => OrderingMode::PerDestination,
                    "fixed" => OrderingMode::Fixed,
                    other => {
                        return Err(format!("`--ordering` wants fixed|por|full, got `{other}`"))
                    }
                }
            }
            "--mutant" => options.mutation = Mutation::SkipDedup,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        population,
        config,
        mutation,
    } = match parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "exploring {population}-process dissemination ({mutation:?}): \
         {} round(s), {} drop(s), {} crash(es), {:?} ordering, ≤{} states",
        config.max_rounds,
        config.drop_budget,
        config.crash_budget,
        config.ordering,
        config.max_states
    );
    let start = std::time::Instant::now();
    let report =
        dissemination_explorer(config).explore(&base_config(), single_group(population, mutation));
    let elapsed = start.elapsed();

    let s = report.stats;
    println!(
        "states {}  transitions {}  max round {}  dedup hits {}  quiescent leaves {}",
        s.states, s.transitions, s.max_round, s.dedup_hits, s.quiescent_leaves
    );
    println!(
        "exhausted: {}  truncated: {}  ({elapsed:.2?})",
        s.exhausted, s.truncated
    );
    match (&report.violation, mutation) {
        (None, Mutation::None) => {
            println!(
                "verdict: {}",
                if report.verified() {
                    "VERIFIED (exhaustive within bounds)"
                } else {
                    "clean, but the walk was not exhaustive"
                }
            );
            ExitCode::SUCCESS
        }
        (Some(ce), Mutation::None) => {
            println!("verdict: VIOLATION\n{}", ce.summary());
            ExitCode::FAILURE
        }
        (Some(ce), _) => {
            println!("verdict: mutant caught, as it must be\n{}", ce.summary());
            ExitCode::SUCCESS
        }
        (None, _) => {
            println!("verdict: mutant escaped the bounded walk — raise the bounds");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(list: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = list.iter().map(|&a| a.to_owned()).collect();
        parse(&args)
    }

    #[test]
    fn no_arguments_run_the_acceptance_walk() {
        let options = parsed(&[]).unwrap();
        assert_eq!(options.population, 3);
        assert_eq!(options.mutation, Mutation::None);
        let c = options.config;
        assert_eq!((c.max_rounds, c.drop_budget, c.crash_budget), (6, 1, 1));
        assert_eq!((c.ordering, c.max_states), (OrderingMode::Full, 1_000_000));
    }

    #[test]
    fn every_flag_sets_its_value() {
        let options = parsed(&[
            "--procs",
            "5",
            "--rounds",
            "4",
            "--drops",
            "0",
            "--crashes",
            "2",
            "--ordering",
            "por",
            "--max-states",
            "50000",
        ])
        .unwrap();
        assert_eq!(options.population, 5);
        let c = options.config;
        assert_eq!((c.max_rounds, c.drop_budget, c.crash_budget), (4, 0, 2));
        assert_eq!(
            (c.ordering, c.max_states),
            (OrderingMode::PerDestination, 50_000)
        );
        assert_eq!(
            parsed(&["--ordering", "fixed"]).unwrap().config.ordering,
            OrderingMode::Fixed
        );
        assert_eq!(
            parsed(&["--ordering", "full"]).unwrap().config.ordering,
            OrderingMode::Full
        );
    }

    #[test]
    fn mutant_takes_no_value() {
        let options = parsed(&["--mutant", "--drops", "2"]).unwrap();
        assert_eq!(options.mutation, Mutation::SkipDedup);
        assert_eq!(options.config.drop_budget, 2);
    }

    #[test]
    fn anything_else_is_an_error_naming_it() {
        let error = |list: &[&str]| parsed(list).unwrap_err();
        assert_eq!(error(&["--bogus"]), "unknown argument `--bogus`");
        assert_eq!(error(&["--quick"]), "unknown argument `--quick`");
        assert_eq!(error(&["--drops"]), "`--drops` wants a value");
        assert_eq!(
            error(&["--procs", "3", "--rounds"]),
            "`--rounds` wants a value"
        );
        assert_eq!(
            error(&["--procs", "x"]),
            "`--procs` wants a number, got `x`"
        );
        assert_eq!(
            error(&["--ordering", "dfs"]),
            "`--ordering` wants fixed|por|full, got `dfs`"
        );
        assert_eq!(error(&["3"]), "unknown argument `3`");
    }
}
