//! The one engine vocabulary and the one entry point that runs it.
//!
//! An [`Engine`] names a resolved front end, and [`Experiment::run`]
//! drives any of them over a trace under one [`PolicyKind`], returning
//! its [`Outcome`]. Checkpointed runs and [`crate::checkpoint::resume`]
//! build their engine through the same constructor
//! (`Experiment::build`), the one place each engine is constructed.

use vrl_dram_sim::controller::{ControllerStats, FrFcfsController};
use vrl_dram_sim::fault::{FaultConfig, FaultInjector};
use vrl_dram_sim::guard::{Guard, GuardConfig};
use vrl_dram_sim::policy::RefreshPolicy;
use vrl_dram_sim::sim::{SimConfig, SimObserver, Simulator};
use vrl_dram_sim::{SimStats, TimingParams};
use vrl_obs::Recorder;
use vrl_sched::{SchedConfig, SchedStats, Scheduler};
use vrl_trace::TraceRecord;

use crate::drive::SpanEngine;
use crate::error::Error;
use crate::experiment::{with_policy, Experiment, FaultedOutcome, PolicyKind};
use crate::physics::ModelPhysics;
use crate::spans::{SpanProgress, Spanned};

/// A resolved engine: which front end runs, and its shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// The single-bank cycle-level simulator.
    Sim,
    /// The single-bank FR-FCFS controller.
    FrFcfs {
        /// Request-queue capacity (≥ 1).
        queue_depth: usize,
    },
    /// One multi-bank scheduler over the whole configuration — a bank
    /// group or a full DIMM.
    Sched(SchedConfig),
    /// One channel shard of a DIMM: records steered to other channels
    /// are dropped, and events carry global bank indices. Kept for
    /// `perfbench/`'s `run_dimm_channel_spanned_with` and the
    /// shard ≡ whole-DIMM tests; every product path runs the whole DIMM
    /// as one [`Engine::Sched`].
    Channel {
        /// The full DIMM geometry.
        sched: SchedConfig,
        /// The channel this shard drives.
        channel: u32,
    },
    /// The single-bank simulator under injected faults, protected by
    /// the runtime guard when `guard` is set. It has no span seam: it
    /// runs unsegmented, reports no progress and ignores the observer
    /// (its own integrity checker or guard watches the run).
    Faulted {
        /// Which faults to inject.
        faults: FaultConfig,
        /// Guard parameters, when the guard is enabled.
        guard: Option<GuardConfig>,
    },
}

impl Engine {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Sim => "sim",
            Engine::FrFcfs { .. } => "frfcfs",
            Engine::Sched(_) => "sched",
            Engine::Channel { .. } => "channel",
            Engine::Faulted { .. } => "faulted",
        }
    }

    /// An event recorder for this engine's run of `policy`, labeled
    /// `label`: per-bank tracks keyed by the scheduler's row→bank
    /// address map, or one track for the single-bank engines.
    pub fn recorder(&self, label: &str, policy: PolicyKind) -> Recorder {
        let rows_per_bank = match self {
            Engine::Sched(sched) | Engine::Channel { sched, .. } => sched.rows_per_bank(),
            _ => u32::MAX,
        };
        Recorder::new(label, policy.name(), rows_per_bank)
    }
}

/// The statistics one engine run produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Single-bank simulator counters.
    Sim(SimStats),
    /// FR-FCFS controller counters.
    FrFcfs(ControllerStats),
    /// Scheduler counters ([`Engine::Sched`] or [`Engine::Channel`]).
    Sched(SchedStats),
    /// Fault-injected run outcome.
    Faulted(FaultedOutcome),
}

impl Outcome {
    /// The simulator's statistics; the engine was [`Engine::Sim`].
    pub(crate) fn into_sim(self) -> SimStats {
        match self {
            Outcome::Sim(stats) => stats,
            _ => unreachable!("engine/outcome mismatch: Sim"),
        }
    }

    /// The controller's statistics; the engine was [`Engine::FrFcfs`].
    pub(crate) fn into_frfcfs(self) -> ControllerStats {
        match self {
            Outcome::FrFcfs(stats) => stats,
            _ => unreachable!("engine/outcome mismatch: FrFcfs"),
        }
    }

    /// The scheduler's statistics; the engine was [`Engine::Sched`] or
    /// [`Engine::Channel`].
    pub(crate) fn into_sched(self) -> SchedStats {
        match self {
            Outcome::Sched(stats) => stats,
            _ => unreachable!("engine/outcome mismatch: Sched"),
        }
    }

    /// The faulted run's outcome; the engine was [`Engine::Faulted`].
    pub(crate) fn into_faulted(self) -> FaultedOutcome {
        match self {
            Outcome::Faulted(outcome) => outcome,
            _ => unreachable!("engine/outcome mismatch: Faulted"),
        }
    }

    /// The single-bank counters every engine reports: the run's own for
    /// the simulator, the embedded base counters for the others.
    pub fn sim_stats(&self) -> &SimStats {
        match self {
            Outcome::Sim(stats) => stats,
            Outcome::FrFcfs(stats) => &stats.sim,
            Outcome::Sched(stats) => &stats.sim,
            Outcome::Faulted(outcome) => &outcome.stats,
        }
    }
}

/// What to do with a freshly built span engine: drive it span by span,
/// with checkpoints, or on from a snapshot.
pub(crate) trait EngineRun {
    /// What the run returns.
    type Output;

    /// Drives `engine`; `wrap` lifts its statistics into an [`Outcome`].
    fn drive<E: SpanEngine>(
        self,
        engine: E,
        wrap: fn(E::Stats) -> Outcome,
    ) -> Result<Self::Output, Error>;
}

impl Experiment {
    /// Runs `policy` on `engine` over `trace`, pausing every
    /// `span_cycles` cycles (`0` = never) to report progress to
    /// `on_span`, and reporting events to `observer`. A segmented run is
    /// bit-identical to an unsegmented one. [`Engine::Faulted`] runs
    /// unsegmented and ignores `observer` and `on_span`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] for an engine configuration (queue depth,
    /// geometry, channel) or scheduler invariant failure.
    pub fn run<I, O, F>(
        &self,
        engine: &Engine,
        policy: PolicyKind,
        trace: I,
        span_cycles: u64,
        observer: &mut O,
        mut on_span: F,
    ) -> Result<Outcome, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
        F: FnMut(SpanProgress),
    {
        match *engine {
            Engine::Faulted { faults, guard } => {
                Ok(Outcome::Faulted(self.faulted(policy, trace, faults, guard)))
            }
            _ => {
                let run = Spanned::new(self, trace, span_cycles, observer, &mut on_span);
                self.build(engine, policy, run)
            }
        }
    }

    /// Builds `engine` under `policy` and hands it to `run` — the one
    /// place a span engine is constructed.
    ///
    /// [`Engine::Faulted`] is not a span engine; callers handle it
    /// before building.
    pub(crate) fn build<R: EngineRun>(
        &self,
        engine: &Engine,
        policy: PolicyKind,
        run: R,
    ) -> Result<R::Output, Error> {
        with_policy!(policy, self.plan(), |p| match *engine {
            Engine::Sim => run.drive(simulator(self.config().rows, p), Outcome::Sim),
            Engine::FrFcfs { queue_depth } => {
                let config = SimConfig::with_rows(self.config().rows);
                let ctl = FrFcfsController::new(config, p, queue_depth)?;
                run.drive(ctl, Outcome::FrFcfs)
            }
            Engine::Sched(sched) => run.drive(Scheduler::new(sched, p)?, Outcome::Sched),
            Engine::Channel { sched, channel } => {
                let shard = Scheduler::for_channel(sched, p, channel)?;
                run.drive(shard, Outcome::Sched)
            }
            Engine::Faulted { .. } => unreachable!("faulted runs are not span engines"),
        })
    }

    /// The [`Engine::Faulted`] run: the injector perturbs ground truth,
    /// and either the guard or the integrity checker watches.
    fn faulted<I>(
        &self,
        policy: PolicyKind,
        trace: I,
        faults: FaultConfig,
        guard: Option<GuardConfig>,
    ) -> FaultedOutcome
    where
        I: Iterator<Item = TraceRecord>,
    {
        let profiled = self.profiled_retention();
        let injector = FaultInjector::new(faults, &profiled, TimingParams::paper_default());
        let true_retention = injector.true_retention();
        let duration_ms = self.config().duration_ms;
        with_policy!(policy, self.plan(), |p| {
            let mut sim = simulator(self.config().rows, p);
            sim.set_fault_injector(injector);
            let (stats, violations, guard) = match guard {
                Some(cfg) => {
                    let timing = TimingParams::paper_default();
                    let mut guard = Guard::new(ModelPhysics::n90(), timing, true_retention, cfg);
                    let stats = sim.run_guarded(trace, duration_ms, &mut guard);
                    (stats, 0, Some(guard.stats()))
                }
                None => {
                    let mut checker = self.integrity_checker(true_retention);
                    let stats = sim.run_observed(trace, duration_ms, &mut checker);
                    (stats, checker.violations().len(), None)
                }
            };
            let faults = sim.fault_injector().map(FaultInjector::stats);
            FaultedOutcome {
                stats,
                violations,
                guard,
                faults: faults.unwrap_or_default(),
            }
        })
    }
}

/// A single-bank simulator over `rows` rows at paper timing — every
/// single-bank engine the crate builds.
pub(crate) fn simulator<P: RefreshPolicy>(rows: u32, policy: P) -> Simulator<P> {
    Simulator::new(SimConfig::with_rows(rows), policy)
}
