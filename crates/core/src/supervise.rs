//! Supervised matrix execution: the bridge between the `vrl-exec`
//! [`Supervisor`] and the observability layer.
//!
//! [`vrl_exec::map_supervised`] retries panicking jobs with recorded
//! (never slept) deterministic backoffs, quarantines jobs that exhaust
//! their retry or virtual-deadline budget, and degrades the batch to
//! serial execution after repeated pool failures — all as typed
//! [`SupervisorEvent`]s and [`SupervisorCounters`]. This module turns
//! those into the workspace's observability vocabulary:
//!
//! * [`supervisor_events_to_obs`] maps each supervision decision onto a
//!   typed [`vrl_obs::Event`] (`ExecRetry`, `ExecDeadline`,
//!   `ExecQuarantine`, `ExecDegraded`), mergeable with engine event
//!   streams and exportable as a Chrome trace,
//! * [`supervisor_metrics`] exposes the counters as an `exec.*`
//!   [`MetricsSnapshot`] (the same shape the CLI and bench harness
//!   already write to disk),
//! * [`Experiment::run_jobs_supervised`] /
//!   [`Experiment::run_matrix_supervised`] run (benchmark × policy)
//!   jobs under a supervision policy, so a single poisoned cell is
//!   quarantined with its typed error while its siblings complete.
//!
//! Supervision is virtual-time deterministic, so a supervised matrix —
//! including every event and counter — is bit-identical across pool
//! shapes.

use vrl_exec::{ExecConfig, Quarantined, Supervisor, SupervisorCounters, SupervisorEvent};
use vrl_obs::recorder::NO_ROW;
use vrl_obs::{Event, EventKind, MetricsRegistry, MetricsSnapshot};

use crate::engine::Engine;
use crate::error::Error;
use crate::experiment::{matrix_jobs, Experiment, MatrixCell, PolicyKind};

/// Maps supervision decisions onto typed observability events.
///
/// Exec events carry the job index in `cycle` (they have no simulated
/// time) and the row-less sentinel in `row`; the batch-level
/// [`SupervisorEvent::Degraded`] decision has no job and reports cycle
/// 0. `seq` is the event's position in the supervision log, so merging
/// with engine streams keeps the supervision order stable.
pub fn supervisor_events_to_obs(events: &[SupervisorEvent]) -> Vec<Event> {
    events
        .iter()
        .enumerate()
        .map(|(seq, ev)| {
            let (job, kind) = match *ev {
                SupervisorEvent::Retry {
                    job,
                    attempt,
                    backoff,
                } => (
                    job,
                    EventKind::ExecRetry {
                        attempt,
                        backoff: u32::try_from(backoff).unwrap_or(u32::MAX),
                    },
                ),
                SupervisorEvent::DeadlineExceeded { job, .. } => (job, EventKind::ExecDeadline),
                SupervisorEvent::Quarantined {
                    job,
                    attempts,
                    panicked,
                } => (job, EventKind::ExecQuarantine { attempts, panicked }),
                SupervisorEvent::Degraded { failures } => (0, EventKind::ExecDegraded { failures }),
            };
            Event {
                seq: seq as u64,
                cycle: job as u64,
                bank: 0,
                row: NO_ROW,
                kind,
            }
        })
        .collect()
}

/// Exposes one batch's supervision counters as `exec.*` metrics, in the
/// same [`MetricsSnapshot`] shape the harness writes to disk.
pub fn supervisor_metrics(counters: &SupervisorCounters) -> MetricsSnapshot {
    let mut registry = MetricsRegistry::new();
    for (name, value) in [
        ("exec.retries", counters.retries),
        ("exec.quarantined", counters.quarantined),
        ("exec.deadline_exceeded", counters.deadline_exceeded),
        ("exec.panics", counters.panics),
        ("exec.degraded", counters.degraded),
    ] {
        let id = registry.counter(name);
        registry.add(id, value);
    }
    registry.snapshot()
}

/// A supervised (benchmark × policy) run: per-job outcomes plus the
/// supervision record in observability vocabulary.
#[derive(Debug)]
pub struct SupervisedMatrix {
    /// One entry per job in job order; quarantined jobs carry their
    /// typed failure in place while their siblings' cells are real.
    pub cells: Vec<Result<MatrixCell, Quarantined<Error>>>,
    /// The supervision log as typed observability events
    /// ([`supervisor_events_to_obs`]).
    pub events: Vec<Event>,
    /// Aggregate supervision counters for the batch.
    pub counters: SupervisorCounters,
    /// The counters as `exec.*` metrics ([`supervisor_metrics`]).
    pub metrics: MetricsSnapshot,
    /// Whether the batch degraded to serial execution.
    pub degraded: bool,
}

impl Experiment {
    /// Runs explicit (benchmark, policy) jobs on [`Engine::Sim`] under
    /// a supervision policy. A job whose benchmark is unknown (or that
    /// otherwise fails with a typed error) is quarantined immediately —
    /// typed errors are deterministic domain failures, not flaky
    /// infrastructure — while panicking jobs are retried per `sup` and
    /// every sibling runs to completion.
    pub fn run_jobs_supervised(
        &self,
        cfg: &ExecConfig,
        sup: &Supervisor,
        jobs: &[(String, PolicyKind)],
    ) -> SupervisedMatrix {
        let batch = vrl_exec::map_supervised(cfg, sup, jobs, |_, (benchmark, kind)| {
            self.cell(&Engine::Sim, benchmark, *kind)
        });
        SupervisedMatrix {
            events: supervisor_events_to_obs(&batch.events),
            metrics: supervisor_metrics(&batch.counters),
            counters: batch.counters,
            degraded: batch.degraded,
            cells: batch.results,
        }
    }

    /// Runs the full (benchmark × policy) matrix under a supervision
    /// policy, benchmark-major like [`Experiment::run_matrix`], with
    /// per-job quarantine instead of first-failure abort.
    pub fn run_matrix_supervised(
        &self,
        cfg: &ExecConfig,
        sup: &Supervisor,
        policies: &[PolicyKind],
    ) -> SupervisedMatrix {
        let jobs: Vec<(String, PolicyKind)> = matrix_jobs(policies)
            .map(|(benchmark, kind)| (benchmark.to_owned(), kind))
            .collect();
        self.run_jobs_supervised(cfg, sup, &jobs)
    }
}
