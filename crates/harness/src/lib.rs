//! # da-harness — the experiment harness
//!
//! Regenerates every figure and table of the evaluation section of
//! *Data-Aware Multicast* (DSN 2004), plus the ablations and extensions
//! ARCHITECTURE.md lists under "Where the paper's figures live":
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Fig. 8 (events per group) | [`experiments::figures`] |
//! | Fig. 9 (inter-group events) | [`experiments::figures`] |
//! | Fig. 10 (reliability, stillborn) | [`experiments::figures`] |
//! | Fig. 11 (reliability, dynamic) | [`experiments::figures`] |
//! | Sec. VI-E.1/2 complexity tables | [`experiments::tables`] |
//! | Sec. VI-E.3 tuning table | [`experiments::tables`] |
//! | Parasite-freedom claim | [`experiments::parasites`] |
//! | `O(S·lnS)` scaling | [`experiments::scaling`] |
//! | g/z/fanout/maintenance ablations | [`experiments::ablations`] |
//! | Live-runtime vs simulator reliability | [`experiments::live`] |
//!
//! The `run_all` binary regenerates every row but the last through
//! [`experiments::artifacts`], writing CSV + Markdown into `results/`
//! (plus an ASCII plot on stdout); `live_vs_sim` runs the last.
//!
//! The building blocks are reusable: [`scenario`] runs one publication
//! to quiescence and measures the paper's scenario, [`substrate`] runs a
//! population on the simulator or the worker pool behind one driver,
//! [`runner`] fans trials out over worker threads,
//! [`stats`]/[`report`]/[`plot`] summarise and render.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod plot;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod substrate;

use std::path::PathBuf;

/// The default output directory for experiment results: `results/` under
/// the current working directory (override with `DA_RESULTS_DIR`).
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("DA_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}
