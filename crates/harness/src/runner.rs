//! Parallel trial execution.
//!
//! Every experiment repeats each configuration over several seeds and
//! reports summary statistics. Trials are independent simulations, so
//! they run on scoped worker threads — the simulation kernel itself
//! stays single-threaded and deterministic per seed.

use crate::report::Table;
use crate::stats::Summary;
use da_core::derive_seed;

/// Runs `trials` independent executions of `run` (seeded deterministically
/// from `base_seed`) and summarises each returned metric across trials.
///
/// `run(seed)` must return the same number of metrics on every call.
///
/// # Panics
///
/// Panics if `run` returns inconsistent metric counts or a worker thread
/// panics.
pub fn run_trials<F>(trials: usize, base_seed: u64, run: F) -> Vec<Summary>
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    if trials == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(trials);
    let results: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let run = &run;
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                let mut t = worker;
                while t < trials {
                    mine.push((t, run(derive_seed(base_seed, t as u64))));
                    t += threads;
                }
                mine
            }));
        }
        let mut all: Vec<(usize, Vec<f64>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("trial worker panicked"))
            .collect();
        // Deterministic aggregation order regardless of thread scheduling.
        all.sort_by_key(|(t, _)| *t);
        all.into_iter().map(|(_, m)| m).collect()
    });
    fold(&results)
}

/// Summarises each metric of per-trial metric vectors across the trials.
///
/// # Panics
///
/// Panics if the trials report different metric counts.
#[must_use]
pub(crate) fn fold(results: &[Vec<f64>]) -> Vec<Summary> {
    let width = results.first().map_or(0, Vec::len);
    assert!(
        results.iter().all(|r| r.len() == width),
        "every trial must report the same metrics"
    );
    (0..width)
        .map(|m| {
            let samples: Vec<f64> = results.iter().map(|r| r[m]).collect();
            Summary::of(&samples)
        })
        .collect()
}

/// Sweeps `xs`, running [`run_trials`] at every point, and tabulates
/// one row per point in input order: the summaries of `run`'s metrics
/// under `columns`. Each sweep point gets an independent seed stream, so
/// adding points never perturbs existing ones.
///
/// # Panics
///
/// Panics when `run` returns other than one metric per column.
pub fn sweep<F>(
    title: &str,
    key_label: &str,
    columns: Vec<String>,
    xs: &[f64],
    trials: usize,
    base_seed: u64,
    run: F,
) -> Table<f64>
where
    F: Fn(f64, u64) -> Vec<f64> + Sync,
{
    let mut table = Table::new(title, key_label, columns);
    for (i, &x) in xs.iter().enumerate() {
        let point_seed = derive_seed(base_seed, 0x5EED_0000 + i as u64);
        table.push_row(x, run_trials(trials, point_seed, |seed| run(x, seed)));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_aggregate_deterministically() {
        let f = |seed: u64| vec![(seed % 100) as f64, 1.0];
        let a = run_trials(16, 42, f);
        let b = run_trials(16, 42, f);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].mean, b[0].mean, "same seeds, same result");
        assert_eq!(a[1].mean, 1.0);
        assert_eq!(a[0].count, 16);
    }

    #[test]
    fn different_base_seed_changes_samples() {
        let f = |seed: u64| vec![(seed % 1000) as f64];
        let a = run_trials(8, 1, f);
        let b = run_trials(8, 2, f);
        assert_ne!(a[0].mean, b[0].mean);
    }

    #[test]
    fn zero_trials_empty() {
        assert!(run_trials(0, 1, |_| vec![1.0]).is_empty());
    }

    #[test]
    fn sweep_preserves_order_and_isolation() {
        let columns = vec!["ten x".into()];
        let table = sweep("t", "x", columns, &[0.1, 0.2, 0.3], 4, 7, |x, seed| {
            vec![x * 10.0 + (seed % 2) as f64 * 0.0]
        });
        let rows = &table.rows;
        assert_eq!(rows.len(), 3);
        assert!((rows[0].key - 0.1).abs() < 1e-12);
        assert!((rows[0].values[0].mean - 1.0).abs() < 1e-9);
        assert!((rows[2].values[0].mean - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "same metrics")]
    fn inconsistent_metric_count_panics() {
        let _ = run_trials(4, 1, |seed| {
            if seed % 2 == 0 {
                vec![1.0]
            } else {
                vec![1.0, 2.0]
            }
        });
    }

    #[test]
    fn parallelism_matches_serial_reference() {
        // The mean of f(seed) must match a serial computation exactly.
        let f = |seed: u64| vec![(seed % 17) as f64];
        let summaries = run_trials(32, 9, f);
        let serial: Vec<f64> = (0..32).map(|t| (derive_seed(9, t) % 17) as f64).collect();
        assert!((summaries[0].mean - Summary::of(&serial).mean).abs() < 1e-12);
    }
}
