//! Executes a [`JobSpec`] and assembles its result frame.
//!
//! The result frame is a **pure function of the spec**: no job ids, no
//! timestamps, no cache provenance. That is what makes the served path
//! byte-comparable to a direct run. Both paths map the spec's
//! [`FrontEnd`] to a [`vrl_dram::Engine`] ([`engine`]) and call
//! [`Experiment::run`]; they differ only in where the artifacts come
//! from and whether the run reports progress. [`run_with_cache`] uses
//! shared artifacts, the cached trace and span-segmented progress;
//! [`direct_result`] builds a fresh [`Experiment`] and streams an
//! unsegmented run. They must return identical strings for every spec,
//! and the crate's tests assert exactly that per front end.

use vrl_dram::experiment::{sched_metrics, sim_metrics, Experiment};
use vrl_dram::spans::SpanProgress;
use vrl_dram::{Engine, Error};
use vrl_dram_sim::fault::FaultConfig;
use vrl_dram_sim::guard::GuardConfig;
use vrl_dram_sim::sim::NullObserver;
use vrl_obs::PhaseProfiler;

use crate::cache::ArtifactCache;
use crate::spec::{FrontEnd, JobSpec};

/// The statistics one engine produces (re-exported from `vrl-dram`).
pub use vrl_dram::Outcome;

/// Profiler phase: fetching/building cached artifacts (experiment
/// config, refresh plans, benchmark traces).
pub const PHASE_ARTIFACT_BUILD: &str = "artifact_build";
/// Profiler phase: the simulation itself.
pub const PHASE_RUN: &str = "run";
/// Profiler phase: rendering the result frame.
pub const PHASE_SERIALIZE: &str = "serialize";

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
        Outcome::Sched(s) => sched_metrics(s),
        other => sim_metrics(other.sim_stats()),
    }
    .to_json();
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
    on_span: F,
    profiler: &mut PhaseProfiler,
) -> Result<String, Error>
where
    F: FnMut(SpanProgress),
{
    let span = profiler.span(PHASE_ARTIFACT_BUILD);
    let experiment = cache.experiment(spec.config);
    let trace = cache.trace(&experiment, &spec.benchmark)?;
    let engine = engine(&experiment, spec.front_end)?;
    drop(span);
    let span = profiler.span(PHASE_RUN);
    let records = trace.iter().copied();
    let outcome = experiment.run(
        &engine,
        spec.policy,
        records,
        span_cycles,
        &mut NullObserver,
        on_span,
    )?;
    drop(span);
    let _span = profiler.span(PHASE_SERIALIZE);
    Ok(result_frame(spec, &outcome))
}

/// Runs a spec directly: fresh [`Experiment`], streamed trace,
/// unsegmented run, no caching, no progress. The reference the served
/// path is byte-compared against (`vrl submit --direct` and the
/// bit-identity tests).
///
/// # Errors
///
/// Returns [`Error`] exactly when [`run_with_cache`] would.
pub fn direct_result(spec: &JobSpec) -> Result<String, Error> {
    let experiment = Experiment::new(spec.config);
    let trace = experiment.trace(&spec.benchmark)?;
    let engine = engine(&experiment, spec.front_end)?;
    let outcome = experiment.run(&engine, spec.policy, trace, 0, &mut NullObserver, |_| {})?;
    Ok(result_frame(spec, &outcome))
}

/// Maps a wire front end to the engine it names, with the scheduler
/// geometry resolved against `experiment`'s rows and the faulted
/// front end's canonical fault scenario.
///
/// # Errors
///
/// Returns [`Error::Sim`] for a bank or DIMM geometry that does not
/// evenly split the experiment's rows.
pub fn engine(experiment: &Experiment, front_end: FrontEnd) -> Result<Engine, Error> {
    Ok(match front_end {
        FrontEnd::Sim => Engine::Sim,
        FrontEnd::FrFcfs { queue_depth } => Engine::FrFcfs { queue_depth },
        FrontEnd::Sched { banks } => Engine::Sched(experiment.sched_config(banks)?),
        FrontEnd::Dimm {
            channels,
            ranks,
            banks_per_rank,
        } => Engine::Sched(experiment.dimm_config(channels, ranks, banks_per_rank)?),
        FrontEnd::Faulted { fault_seed, guard } => Engine::Faulted {
            faults: FaultConfig::default_scenario(fault_seed),
            guard: guard.then(GuardConfig::default),
        },
    })
}
