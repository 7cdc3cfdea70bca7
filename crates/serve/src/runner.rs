//! Executes a [`JobSpec`] and assembles its result frame.
//!
//! The result frame is a **pure function of the spec**: no job ids, no
//! timestamps, no cache provenance. That is what makes the served path
//! byte-comparable to a direct run — [`run_with_cache`] (shared
//! artifacts, span-segmented engines, progress callbacks) and
//! [`direct_result`] (fresh [`Experiment`], plain unsegmented runs)
//! must return identical strings for every spec, and the crate's tests
//! assert exactly that per front end.

use vrl_dram::experiment::{sched_metrics, sim_metrics, Experiment, FaultedOutcome};
use vrl_dram::spans::SpanProgress;
use vrl_dram::Error;
use vrl_dram_sim::controller::ControllerStats;
use vrl_dram_sim::fault::FaultConfig;
use vrl_dram_sim::guard::GuardConfig;
use vrl_dram_sim::SimStats;
use vrl_obs::PhaseProfiler;
use vrl_sched::SchedStats;

use crate::cache::ArtifactCache;
use crate::spec::{FrontEnd, JobSpec};

/// Profiler phase: fetching/building cached artifacts (experiment
/// config, refresh plans, benchmark traces).
pub const PHASE_ARTIFACT_BUILD: &str = "artifact_build";
/// Profiler phase: the simulation itself.
pub const PHASE_RUN: &str = "run";
/// Profiler phase: rendering the result frame.
pub const PHASE_SERIALIZE: &str = "serialize";

/// The statistics one front end produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Single-bank simulator counters.
    Sim(SimStats),
    /// FR-FCFS controller counters.
    FrFcfs(ControllerStats),
    /// Scheduler counters (single channel or merged DIMM shards).
    Sched(SchedStats),
    /// Fault-injected run outcome.
    Faulted(FaultedOutcome),
}

/// Renders the deterministic result frame for a spec and its outcome:
/// `{"type":"result","spec_hash":...,"front_end":...,"stats":...,"metrics":...}`.
pub fn result_frame(spec: &JobSpec, outcome: &Outcome) -> String {
    let stats = match outcome {
        Outcome::Sim(s) => serde_json::to_string(s),
        Outcome::FrFcfs(s) => serde_json::to_string(s),
        Outcome::Sched(s) => serde_json::to_string(s),
        Outcome::Faulted(o) => serde_json::to_string(o),
    }
    .expect("stats structs serialize infallibly");
    let metrics = match outcome {
        Outcome::Sim(s) => sim_metrics(s).to_json(),
        Outcome::FrFcfs(s) => sim_metrics(&s.sim).to_json(),
        Outcome::Sched(s) => sched_metrics(s).to_json(),
        Outcome::Faulted(o) => sim_metrics(&o.stats).to_json(),
    };
    format!(
        "{{\"type\":\"result\",\"spec_hash\":\"{:016x}\",\"front_end\":\"{}\",\"stats\":{stats},\"metrics\":{metrics}}}",
        spec.canonical_hash(),
        spec.front_end.name()
    )
}

/// Runs a spec through cache-shared artifacts and the span-segmented
/// engines, reporting progress at every `span_cycles` boundary.
/// Returns the result frame — byte-identical to [`direct_result`].
///
/// # Errors
///
/// Returns [`Error`] for engine configuration failures (the spec layer
/// rejects everything it can before this point).
pub fn run_with_cache<F>(
    cache: &ArtifactCache,
    spec: &JobSpec,
    span_cycles: u64,
    on_span: F,
) -> Result<String, Error>
where
    F: FnMut(SpanProgress),
{
    let mut profiler = PhaseProfiler::new();
    run_with_cache_profiled(cache, spec, span_cycles, on_span, &mut profiler)
}

/// [`run_with_cache`] with phase attribution: artifact fetch/build, the
/// simulation itself, and result-frame rendering each land in a
/// [`PhaseProfiler`] span ([`PHASE_ARTIFACT_BUILD`], [`PHASE_RUN`],
/// [`PHASE_SERIALIZE`]) so the daemon can feed per-phase latency
/// histograms. Profiling never touches the result bytes — the frame
/// stays a pure function of the spec.
///
/// # Errors
///
/// Exactly as [`run_with_cache`].
pub fn run_with_cache_profiled<F>(
    cache: &ArtifactCache,
    spec: &JobSpec,
    span_cycles: u64,
    mut on_span: F,
    profiler: &mut PhaseProfiler,
) -> Result<String, Error>
where
    F: FnMut(SpanProgress),
{
    let experiment = {
        let _span = profiler.span(PHASE_ARTIFACT_BUILD);
        cache.experiment(spec.config)
    };
    let outcome = match spec.front_end {
        FrontEnd::Sim => {
            let trace = {
                let _span = profiler.span(PHASE_ARTIFACT_BUILD);
                cache.trace(&experiment, &spec.benchmark)?
            };
            let _span = profiler.span(PHASE_RUN);
            Outcome::Sim(experiment.run_policy_spanned_with(
                spec.policy,
                trace.iter().copied(),
                span_cycles,
                &mut on_span,
            ))
        }
        FrontEnd::FrFcfs { queue_depth } => {
            let trace = {
                let _span = profiler.span(PHASE_ARTIFACT_BUILD);
                cache.trace(&experiment, &spec.benchmark)?
            };
            let _span = profiler.span(PHASE_RUN);
            Outcome::FrFcfs(experiment.run_frfcfs_spanned_with(
                spec.policy,
                trace.iter().copied(),
                queue_depth,
                span_cycles,
                &mut on_span,
            )?)
        }
        FrontEnd::Sched { banks } => {
            let (trace, sched) = {
                let _span = profiler.span(PHASE_ARTIFACT_BUILD);
                (
                    cache.trace(&experiment, &spec.benchmark)?,
                    experiment.sched_config(banks)?,
                )
            };
            let _span = profiler.span(PHASE_RUN);
            Outcome::Sched(experiment.run_scheduled_spanned_with(
                spec.policy,
                sched,
                trace.iter().copied(),
                span_cycles,
                &mut on_span,
            )?)
        }
        FrontEnd::Dimm {
            channels,
            ranks,
            banks_per_rank,
        } => {
            let (trace, sched) = {
                let _span = profiler.span(PHASE_ARTIFACT_BUILD);
                (
                    cache.trace(&experiment, &spec.benchmark)?,
                    experiment.dimm_config(channels, ranks, banks_per_rank)?,
                )
            };
            let _span = profiler.span(PHASE_RUN);
            let mut merged = SchedStats::default();
            for channel in 0..channels {
                let shard = experiment.run_dimm_channel_spanned_with(
                    spec.policy,
                    sched,
                    channel,
                    trace.iter().copied(),
                    span_cycles,
                    &mut on_span,
                )?;
                merged = merged.merge(&shard);
            }
            Outcome::Sched(merged)
        }
        FrontEnd::Faulted { fault_seed, guard } => {
            // Faulted jobs replay the cached trace like every other
            // front end, but the fault injector has no span seam: they
            // run unsegmented (no progress frames).
            let trace = {
                let _span = profiler.span(PHASE_ARTIFACT_BUILD);
                cache.trace(&experiment, &spec.benchmark)?
            };
            let faults = FaultConfig::default_scenario(fault_seed);
            let guard_config = guard.then(GuardConfig::default);
            let _span = profiler.span(PHASE_RUN);
            Outcome::Faulted(experiment.run_faulted_with(
                spec.policy,
                trace.iter().copied(),
                &faults,
                guard_config.as_ref(),
            ))
        }
    };
    let _span = profiler.span(PHASE_SERIALIZE);
    Ok(result_frame(spec, &outcome))
}

/// Runs a spec directly: fresh [`Experiment`], plain unsegmented
/// engines, no caching, no progress. The reference the served path is
/// byte-compared against (`vrl submit --direct` and the bit-identity
/// tests).
///
/// # Errors
///
/// Returns [`Error`] exactly when [`run_with_cache`] would.
pub fn direct_result(spec: &JobSpec) -> Result<String, Error> {
    let experiment = Experiment::new(spec.config);
    let outcome = match spec.front_end {
        FrontEnd::Sim => Outcome::Sim(experiment.run_policy(spec.policy, &spec.benchmark)?),
        FrontEnd::FrFcfs { queue_depth } => {
            Outcome::FrFcfs(experiment.run_frfcfs(spec.policy, &spec.benchmark, queue_depth)?)
        }
        FrontEnd::Sched { banks } => {
            let sched = experiment.sched_config(banks)?;
            Outcome::Sched(experiment.run_scheduled(spec.policy, &spec.benchmark, sched)?)
        }
        FrontEnd::Dimm {
            channels,
            ranks,
            banks_per_rank,
        } => {
            let sched = experiment.dimm_config(channels, ranks, banks_per_rank)?;
            Outcome::Sched(
                experiment
                    .run_dimm_serial(spec.policy, &spec.benchmark, sched)?
                    .stats,
            )
        }
        FrontEnd::Faulted { fault_seed, guard } => {
            let faults = FaultConfig::default_scenario(fault_seed);
            let guard_config = guard.then(GuardConfig::default);
            Outcome::Faulted(experiment.run_faulted(
                spec.policy,
                &spec.benchmark,
                &faults,
                guard_config.as_ref(),
            )?)
        }
    };
    Ok(result_frame(spec, &outcome))
}
