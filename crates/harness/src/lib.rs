//! # da-harness — the experiment harness
//!
//! Regenerates every figure and table of the evaluation section of
//! *Data-Aware Multicast* (DSN 2004), plus the ablations and extensions
//! ARCHITECTURE.md lists under "Where the paper's figures live":
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 8 (events per group) | [`experiments::figures`] | `fig08_group_messages` |
//! | Fig. 9 (inter-group events) | [`experiments::figures`] | `fig09_intergroup` |
//! | Fig. 10 (reliability, stillborn) | [`experiments::figures`] | `fig10_reliability_stillborn` |
//! | Fig. 11 (reliability, dynamic) | [`experiments::figures`] | `fig11_reliability_dynamic` |
//! | Sec. VI-E.1/2 complexity tables | [`experiments::tables`] | `table_complexity` |
//! | Sec. VI-E.3 tuning table | [`experiments::tables`] | `table_tuning` |
//! | Parasite-freedom claim | [`experiments::parasites`] | `table_parasites` |
//! | `O(S·lnS)` scaling | [`experiments::scaling`] | `fig_scaling` |
//! | g/z/fanout/maintenance ablations | [`experiments::ablations`] | `ablations` |
//! | Live-runtime vs simulator reliability | [`experiments::live`] | `live_vs_sim` |
//!
//! Every binary accepts `--quick` for a scaled-down smoke run and writes
//! CSV + Markdown into `results/` (plus an ASCII plot on stdout).
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
