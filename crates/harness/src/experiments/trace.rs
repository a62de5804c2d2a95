//! First-divergence diagnosis between two flight-recorder streams — the
//! observability counterpart of the live-vs-sim reliability sweeps.
//!
//! Both substrates record the same compact `TraceEvent` stream (one
//! event per send / delivery / drop / lifecycle transition, mirroring
//! the envelope-ledger counters). After [canonical
//! ordering](da_core::canonicalize) — which erases the live runtime's
//! legitimate within-tick interleaving — a same-seed pair over
//! *deterministic* faults (reliable channels with a fixed latency;
//! scripted or churn process failures, whose draws are `(pid, tick)`
//! hashes shared by both substrates) must be **bit-identical**. When two
//! streams differ, [`first_divergence`]
//! pinpoints the earliest canonical event where they part ways — the
//! exact message (edge, tick, verdict) one substrate saw and the other
//! did not — which is a far sharper diagnostic than two disagreeing
//! counter totals.
//!
//! [`run_trace_diff`] packages the check: a same-seed sim/live pair
//! that must not diverge, and a deliberately lossy-vs-lossless sim pair
//! that must diverge at its first dropped envelope, proving the
//! diagnosis reports real divergences rather than vacuously passing.

use crate::report::Table;
use crate::stats::Summary;
use crate::substrate::{Driver, Substrate};
use da_core::testkit::Relay;
use da_core::{
    first_divergence, RunConfig, TraceConfig, TraceDivergence, TraceEvent, TraceLog, TraceVerdict,
};

/// Rounds during which the probe keeps sending; the run's horizon leaves
/// enough tail for every in-flight envelope to land (no
/// `dropped_shutdown` noise in the stream).
const PROBE_SEND_ROUNDS: u64 = 6;

/// Virtual-time horizon of every trace-diff trial.
const PROBE_TICKS: u64 = 16;

/// Runs the probe — a [`Relay`] ring sending in its first
/// `PROBE_SEND_ROUNDS` (6) rounds, which draws no randomness and keeps
/// no order-sensitive state, so its stream depends only on the faults
/// and the seed — on `substrate` under `config` with the recorder on,
/// and returns its trace.
#[must_use]
pub fn probe_trace(substrate: Substrate, population: u32, config: &RunConfig) -> TraceLog {
    let probes = Relay::ring(population, PROBE_SEND_ROUNDS);
    let config = config.clone().with_trace(TraceConfig::full());
    let mut driver = Driver::spawn(substrate, config, probes);
    driver.run_ticks(PROBE_TICKS);
    driver.finish().trace.expect("tracing was enabled")
}

/// The outcome of diffing two canonicalised trace streams.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Events in the left stream.
    pub left_events: usize,
    /// Events in the right stream.
    pub right_events: usize,
    /// The first canonical event where the streams part ways — `None`
    /// when they are bit-identical.
    pub divergence: Option<TraceDivergence>,
}

/// Canonically orders both logs' event streams and reports their first
/// divergence.
fn diff_traces(left: &TraceLog, right: &TraceLog) -> TraceDiff {
    let left_events = left.canonical_events();
    let right_events = right.canonical_events();
    TraceDiff {
        left_events: left_events.len(),
        right_events: right_events.len(),
        divergence: first_divergence(&left_events, &right_events),
    }
}

/// One line of context for a parity-test failure message: where two
/// same-seed streams first diverge, or confirmation that they do not.
/// The parity tests put it in their failure messages, to turn
/// "delivered sets differ" into "the first divergent envelope is
/// `t3 p0→p7 dropped_channel [12B]`".
#[must_use]
pub fn describe_divergence(left: &TraceLog, right: &TraceLog) -> String {
    match diff_traces(left, right).divergence {
        None => "trace streams are identical after canonical ordering".to_owned(),
        Some(d) => format!("trace {d}"),
    }
}

/// Runs the full trace-diff check and tabulates it.
///
/// Row `same_seed_sim_vs_live`: the probe under `config` (whose faults
/// must be deterministic — fixed-latency reliable channels; process
/// failures are fine) on both substrates from its seed. The canonical
/// streams must be bit-identical.
///
/// Row `lossless_vs_lossy_sim`: the same workload on the simulator,
/// lossless vs 30%-loss channels. The streams must diverge, and the
/// first divergent event must be the lossy run's earliest drop (or the
/// extra envelope a dropped token's absence suppressed) — evidence the
/// diagnosis fires on real differences.
///
/// Columns: events on each side, and the first divergence index
/// (`-1` when the streams match).
///
/// # Panics
///
/// Panics when the same-seed pair diverges or the lossy pair does not —
/// each a violation of the cross-substrate tracing contract.
#[must_use]
pub fn run_trace_diff(population: u32, config: &RunConfig, workers: usize) -> Table<String> {
    let mut table = Table::new(
        "Flight recorder trace diff, live vs simulated",
        "pair",
        vec![
            "events_left".into(),
            "events_right".into(),
            "first_divergence".into(),
        ],
    );

    let sim = probe_trace(Substrate::Sim, population, config);
    let live = probe_trace(Substrate::Live { workers }, population, config);
    let diff = diff_traces(&sim, &live);
    assert!(
        diff.divergence.is_none(),
        "same-seed sim/live streams diverged: {}",
        describe_divergence(&sim, &live)
    );
    push_diff_row(&mut table, "same_seed_sim_vs_live", &diff);

    let lossy_channel = config.faults.network.channel.with_success_probability(0.7);
    let lossy = probe_trace(
        Substrate::Sim,
        population,
        &config.clone().with_channel(lossy_channel),
    );
    let diff = diff_traces(&sim, &lossy);
    let divergence = diff
        .divergence
        .as_ref()
        .expect("a 30%-loss run must diverge from the lossless one");
    // In canonical order the streams agree up to the first envelope the
    // lossy channel treated differently, so at least one side of the
    // divergence must carry a drop verdict or a now-missing event.
    let involves_loss = [&divergence.left, &divergence.right]
        .into_iter()
        .flatten()
        .any(|e| e.verdict == TraceVerdict::DroppedChannel)
        || divergence.left.is_none()
        || divergence.right.is_none()
        || divergence.left.as_ref().map(TraceEvent::sort_key)
            != divergence.right.as_ref().map(TraceEvent::sort_key);
    assert!(
        involves_loss,
        "the lossless/lossy divergence must surface the channel's work: {divergence}"
    );
    push_diff_row(&mut table, "lossless_vs_lossy_sim", &diff);
    table
}

fn push_diff_row(table: &mut Table<String>, key: &str, diff: &TraceDiff) {
    table.push_row(
        key,
        vec![
            Summary::exact(diff.left_events as f64),
            Summary::exact(diff.right_events as f64),
            Summary::exact(diff.divergence.as_ref().map_or(-1.0, |d| d.index as f64)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Row;
    use da_core::{ChannelConfig, FailureModel, Fate, Latency, ProcessId};

    fn deterministic(seed: u64) -> RunConfig {
        RunConfig::default()
            .with_seed(seed)
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(1)))
    }

    #[test]
    fn same_seed_streams_are_bit_identical_across_substrates() {
        let sim = probe_trace(Substrate::Sim, 12, &deterministic(42));
        for workers in [1, 3] {
            let live = probe_trace(Substrate::Live { workers }, 12, &deterministic(42));
            let diff = diff_traces(&sim, &live);
            assert!(
                diff.divergence.is_none(),
                "workers={workers}: {}",
                describe_divergence(&sim, &live)
            );
            assert!(diff.left_events > 0, "the probe produced traffic");
            assert_eq!(diff.left_events, diff.right_events);
        }
    }

    /// How many of the log's events carry `verdict`.
    fn verdicts(log: &TraceLog, verdict: TraceVerdict) -> usize {
        log.events.iter().filter(|e| e.verdict == verdict).count()
    }

    #[test]
    fn scripted_crashes_stay_fate_matched_in_the_stream() {
        let config = deterministic(7).with_failures(FailureModel::Schedule(vec![
            Fate {
                round: 2,
                pid: ProcessId(3),
                crash: true,
            },
            Fate {
                round: 5,
                pid: ProcessId(3),
                crash: false,
            },
        ]));
        let sim = probe_trace(Substrate::Sim, 10, &config);
        let live = probe_trace(Substrate::Live { workers: 3 }, 10, &config);
        assert!(
            diff_traces(&sim, &live).divergence.is_none(),
            "{}",
            describe_divergence(&sim, &live)
        );
        assert_eq!(verdicts(&sim, TraceVerdict::Crashed), 1);
        assert_eq!(verdicts(&sim, TraceVerdict::Recovered), 1);
        assert!(verdicts(&sim, TraceVerdict::DroppedCrashed) > 0);
    }

    #[test]
    fn churn_draws_are_shared_too() {
        let config = deterministic(99).with_failures(FailureModel::Churn {
            crash_probability: 0.1,
            recover_probability: 0.4,
        });
        let sim = probe_trace(Substrate::Sim, 12, &config);
        let live = probe_trace(Substrate::Live { workers: 4 }, 12, &config);
        assert!(
            diff_traces(&sim, &live).divergence.is_none(),
            "{}",
            describe_divergence(&sim, &live)
        );
        assert!(
            verdicts(&sim, TraceVerdict::Crashed) > 0,
            "the run saw churn"
        );
    }

    #[test]
    fn trace_diff_table_reports_match_and_divergence() {
        let table = run_trace_diff(12, &deterministic(0xD1FF), 3);
        assert_eq!(table.rows.len(), 2);
        let Row { key, values } = &table.rows[0];
        assert_eq!(key, "same_seed_sim_vs_live");
        assert_eq!(values[2].mean, -1.0, "no divergence on the matched pair");
        let Row { key, values } = &table.rows[1];
        assert_eq!(key, "lossless_vs_lossy_sim");
        assert!(values[2].mean >= 0.0, "the lossy pair must diverge");
    }

    #[test]
    fn describe_divergence_names_the_event() {
        let sim = probe_trace(Substrate::Sim, 8, &deterministic(5));
        let lossy = probe_trace(
            Substrate::Sim,
            8,
            &deterministic(5).with_channel(ChannelConfig::reliable().with_success_probability(0.5)),
        );
        let text = describe_divergence(&sim, &lossy);
        assert!(
            text.contains("first divergence"),
            "diagnostic names the divergence: {text}"
        );
        assert_eq!(
            describe_divergence(&sim, &sim),
            "trace streams are identical after canonical ordering"
        );
    }
}
