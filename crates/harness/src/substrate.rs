//! One way to run a population on either substrate.
//!
//! The workspace's claim is one protocol on two substrates; a scenario
//! that wants to show it is written once against a [`Driver`] and takes
//! the [`Substrate`] as a value. The driver is an enum over
//! `da_simnet::Engine` and `da_runtime::Runtime` with the verbs the two
//! share — spawn under one [`RunConfig`], reach into a process, run,
//! read the counters and the trace, take the population back — so the substrates'
//! matching APIs are held together by a `match`, not by convention.

use da_core::{Counters, ExecProtocol, PoolConfig, ProcessId, RunConfig, TraceLog, WireSize};
use da_runtime::{Runtime, Shutdown};
use da_simnet::Engine;

/// Which substrate executes a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// The deterministic round simulator.
    Sim,
    /// The worker-pool runtime (`workers: 0` sizes the pool to the host).
    Live {
        /// Worker threads in the pool.
        workers: usize,
    },
}

impl Substrate {
    /// The prefix of the substrate's own counters: `sim.sent` on the
    /// simulator is `rt.sent` on the pool.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            Substrate::Sim => "sim",
            Substrate::Live { .. } => "rt",
        }
    }
}

/// A population running on one of the two substrates.
// A run holds one driver, by value: the engine's size is paid once.
#[allow(clippy::large_enum_variant)]
pub enum Driver<P: ExecProtocol> {
    /// On the simulator.
    Sim(Engine<P>),
    /// On the worker pool.
    Live(Runtime<P>),
}

impl<P> Driver<P>
where
    P: ExecProtocol + Send + 'static,
    P::Msg: Clone + std::fmt::Debug + WireSize + Send + 'static,
{
    /// Starts `processes` (process `i` is `ProcessId(i)`) on `substrate`
    /// under one seed, fault surface and recorder setting.
    #[must_use]
    pub fn spawn(substrate: Substrate, config: RunConfig, processes: Vec<P>) -> Self {
        match substrate {
            Substrate::Sim => Driver::Sim(Engine::new(config, processes)),
            Substrate::Live { workers } => {
                let config = RunConfig {
                    seed: config.seed,
                    faults: config.faults,
                    trace: config.trace,
                    pool: PoolConfig::default(),
                };
                Driver::Live(Runtime::spawn(config.with_workers(workers), processes))
            }
        }
    }

    /// Runs `f` on process `pid` between ticks and returns its result
    /// (the shape of `Runtime::with_process_mut`, whose bounds it keeps).
    pub fn apply<R, F>(&mut self, pid: ProcessId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut P) -> R + Send + 'static,
    {
        match self {
            Driver::Sim(engine) => f(engine.process_mut(pid)),
            Driver::Live(rt) => rt.with_process_mut(pid, f),
        }
    }

    /// Runs exactly `ticks` rounds or ticks.
    pub fn run_ticks(&mut self, ticks: u64) {
        match self {
            Driver::Sim(engine) => {
                engine.run_rounds(ticks);
            }
            Driver::Live(rt) => {
                rt.run_ticks(ticks);
            }
        }
    }

    /// Runs until a tick is quiet or `max_ticks` have run; returns how
    /// many ran.
    pub fn run_until_quiescent(&mut self, max_ticks: u64) -> u64 {
        match self {
            Driver::Sim(engine) => engine.run_until_quiescent(max_ticks),
            Driver::Live(rt) => rt.run_until_quiescent(max_ticks),
        }
    }

    /// The counters so far.
    #[must_use]
    pub fn counters(&self) -> Counters {
        match self {
            Driver::Sim(engine) => engine.counters().clone(),
            Driver::Live(rt) => rt.counters(),
        }
    }

    /// The flight recorder's log so far, `None` when it is off.
    #[must_use]
    pub fn trace_log(&self) -> Option<TraceLog> {
        match self {
            Driver::Sim(engine) => engine.trace_log(),
            Driver::Live(rt) => rt.trace_log(),
        }
    }

    /// Ends the run: the processes and their final liveness in pid order,
    /// the counters, and the trace when the recorder was on. A pool
    /// counts what is still in flight as `rt.dropped_shutdown`; the
    /// simulator discards it uncounted.
    #[must_use]
    pub fn finish(self) -> Shutdown<P> {
        match self {
            Driver::Sim(engine) => Shutdown {
                statuses: (0..engine.population())
                    .map(|i| engine.status(ProcessId::from_index(i)))
                    .collect(),
                counters: engine.counters().clone(),
                trace: engine.trace_log(),
                processes: engine.into_processes(),
            },
            Driver::Live(rt) => rt.shutdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::testkit::Relay;
    use da_core::{first_divergence, ChannelConfig, FailureModel, Latency, TraceConfig};

    /// Every verb gives one answer on the simulator and on a pool of any
    /// width: the tick the relay goes quiet on, what `apply` reads back,
    /// the counters under the substrate's prefix, and what `finish`
    /// returns — liveness under a stillborn plan, receipt logs, trace —
    /// which the last reads of counters and trace equal.
    #[test]
    fn every_verb_agrees_across_substrates() {
        let config = RunConfig::default()
            .with_seed(42)
            .with_channel(ChannelConfig::reliable().with_latency(Latency::Fixed(1)))
            .with_failures(FailureModel::Stillborn {
                alive_fraction: 0.75,
            })
            .with_trace(TraceConfig::full());
        let run = |substrate: Substrate| {
            let relays = Relay::ring(12, 6);
            let mut driver = Driver::spawn(substrate, config.clone(), relays);
            driver.run_ticks(3);
            let early: Vec<usize> = (0..12)
                .map(|pid| driver.apply(ProcessId(pid), |p| p.received.len()))
                .collect();
            let quiet_after = driver.run_until_quiescent(32);
            let counters = driver.counters();
            let read = driver.trace_log().expect("tracing is on");
            let ledger = ["sent", "delivered", "dropped_crashed"]
                .map(|name| counters.get(&format!("{}.{name}", substrate.prefix())));
            let out = driver.finish();
            assert_eq!(out.counters.to_string(), counters.to_string());
            let receipts: Vec<Vec<u64>> = out.processes.into_iter().map(|p| p.received).collect();
            let events = out.trace.expect("tracing is on").canonical_events();
            assert_eq!(read.canonical_events(), events);
            (early, quiet_after, ledger, out.statuses, receipts, events)
        };
        let sim = run(Substrate::Sim);
        let (early, _, [_, delivered, dropped_crashed], statuses, ..) = &sim;
        assert!(
            statuses.iter().any(|s| !s.is_alive()),
            "someone is stillborn"
        );
        assert!(*delivered > 0 && *dropped_crashed > 0);
        assert!(early.iter().sum::<usize>() > 0, "`apply` reads live state");
        for workers in [1, 3] {
            let live = run(Substrate::Live { workers });
            assert_eq!(first_divergence(&sim.5, &live.5), None);
            assert_eq!(live, sim, "{workers} worker(s)");
        }
    }

    /// The trace capacity bounds each recorder: the simulator's one, and
    /// each worker's. A one-worker pool therefore keeps what the
    /// simulator keeps, event for event; three workers keep up to three
    /// times the capacity.
    #[test]
    fn a_capped_trace_is_capped_per_recorder() {
        let run = |substrate: Substrate| {
            let config = RunConfig::default()
                .with_seed(1)
                .with_trace(TraceConfig::full().with_capacity(7));
            let mut driver = Driver::spawn(substrate, config, Relay::ring(6, 3));
            driver.run_ticks(6);
            driver.finish().trace.expect("tracing is on")
        };
        let sim = run(Substrate::Sim);
        let live = run(Substrate::Live { workers: 1 });
        assert_eq!((sim.events.len(), sim.dropped_events), (7, 29));
        assert_eq!(live.events, sim.events);
        assert_eq!(live.dropped_events, sim.dropped_events);
        let latency = |log: &TraceLog| log.histogram("delivery_latency_ticks").cloned();
        assert_eq!(latency(&live), latency(&sim));

        let wide = run(Substrate::Live { workers: 3 });
        assert_eq!((wide.events.len(), wide.dropped_events), (21, 15));
    }
}
