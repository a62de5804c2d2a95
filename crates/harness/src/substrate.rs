//! One way to run a population on either substrate.
//!
//! The workspace's claim is one protocol on two substrates; a scenario
//! that wants to show it is written once against a [`Driver`] and takes
//! the [`Substrate`] as a value. The driver is an enum over
//! `da_simnet::Engine` and `da_runtime::Runtime` with the verbs the two
//! share — spawn under one [`RunConfig`], reach into a process, run,
//! read the trace, take the population back with its envelope ledger and
//! protocol counters — so the substrates' matching APIs are held together
//! by a `match`, not by convention.

use da_core::ledger::protocol_labels;
use da_core::{ExecProtocol, PoolConfig, ProcessId, RunConfig, WireSize};
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

    /// Ends the run: the processes and their final liveness in pid order,
    /// the ledger, the protocol's counters, and the trace when the
    /// recorder was on. A pool counts what is still in flight as
    /// `dropped_shutdown`; the simulator discards it uncounted.
    #[must_use]
    pub fn finish(self) -> Shutdown<P> {
        match self {
            Driver::Sim(engine) => Shutdown {
                statuses: (0..engine.population())
                    .map(|i| engine.status(ProcessId::from_index(i)))
                    .collect(),
                ledger: engine.ledger(),
                counters: protocol_labels(engine.counters()),
                trace: engine.trace_log(),
                processes: engine.into_processes(),
            },
            Driver::Live(rt) => {
                let out = rt.shutdown();
                let counters = protocol_labels(&out.counters);
                Shutdown { counters, ..out }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::testkit::Relay;
    use da_core::{first_divergence, ChannelConfig, FailureModel, Latency, TraceConfig, TraceLog};

    /// Every verb gives one answer on the simulator and on a pool of any
    /// width: the tick the relay goes quiet on, what `apply` reads back,
    /// and what `finish` returns — the ledger, liveness under a stillborn
    /// plan, receipt logs, trace — which the last read of the trace
    /// equals.
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
            // The substrates' own mid-run reads; a pool's crosses its
            // control channel.
            let read = match &driver {
                Driver::Sim(engine) => engine.trace_log(),
                Driver::Live(rt) => rt.trace_log(),
            };
            let read = read.expect("tracing is on");
            let out = driver.finish();
            let receipts: Vec<Vec<u64>> = out.processes.into_iter().map(|p| p.received).collect();
            let events = out.trace.expect("tracing is on").canonical_events();
            assert_eq!(read.canonical_events(), events);
            (
                early,
                quiet_after,
                out.ledger,
                out.statuses,
                receipts,
                events,
            )
        };
        let sim = run(Substrate::Sim);
        let (early, _, ledger, statuses, ..) = &sim;
        assert!(
            statuses.iter().any(|s| !s.is_alive()),
            "someone is stillborn"
        );
        assert!(ledger.delivered > 0 && ledger.dropped_crashed > 0);
        assert!(early.iter().sum::<usize>() > 0, "`apply` reads live state");
        for workers in [1, 3] {
            let live = run(Substrate::Live { workers });
            assert_eq!(first_divergence(&sim.5, &live.5), None);
            assert_eq!(live, sim, "{workers} worker(s)");
        }
    }

    /// A scripted crash and recovery are lifecycle events in the trace
    /// but not churn in the ledger, which counts the churn model's draws
    /// alone — on the simulator and on a pool alike.
    #[test]
    fn scripted_fates_are_traced_but_not_counted_as_churn() {
        use da_core::trace::TraceVerdict;
        use da_core::Fate;
        let fate = |round, crash| Fate {
            round,
            pid: ProcessId(1),
            crash,
        };
        let config = RunConfig::default()
            .with_failures(FailureModel::Schedule(vec![fate(2, true), fate(4, false)]))
            .with_trace(TraceConfig::full());
        for substrate in [Substrate::Sim, Substrate::Live { workers: 2 }] {
            let mut driver = Driver::spawn(substrate, config.clone(), Relay::ring(4, 6));
            driver.run_ticks(8);
            let out = driver.finish();
            assert_eq!(out.ledger.churn_crashes, 0, "{substrate:?}");
            assert_eq!(out.ledger.churn_recoveries, 0, "{substrate:?}");
            let lifecycle: Vec<_> = (out.trace.expect("tracing is on").events.iter())
                .filter(|e| e.verdict >= TraceVerdict::Crashed)
                .map(|e| (e.tick, e.to, e.verdict))
                .collect();
            let expected = [(2, TraceVerdict::Crashed), (4, TraceVerdict::Recovered)];
            let expected = expected.map(|(tick, verdict)| (tick, ProcessId(1), verdict));
            assert_eq!(lifecycle, expected, "{substrate:?}");
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
