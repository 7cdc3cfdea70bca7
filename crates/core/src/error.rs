//! Typed errors for the experiment layer.

use std::fmt;

/// An error from the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The requested benchmark name is not in the workload table.
    UnknownWorkload {
        /// The name that was asked for.
        requested: String,
        /// Every benchmark name the harness knows.
        known: Vec<String>,
    },
    /// The underlying cycle-level simulation failed.
    Sim(vrl_dram_sim::Error),
    /// A worker of the parallel execution engine panicked while running
    /// a simulation job.
    WorkerPanic {
        /// Index of the job (in deterministic job order) that panicked.
        job: usize,
        /// The rendered panic payload.
        message: String,
    },
    /// The execution engine lost a job's result (a pool bug: the job
    /// neither returned nor panicked).
    JobLost {
        /// Index of the lost job.
        job: usize,
    },
    /// A checkpoint could not be written, read, or decoded.
    Snapshot(vrl_snap::SnapError),
    /// A checkpoint exists and decodes, but belongs to a different run
    /// (front end, benchmark, policy, or configuration differs).
    ResumeMismatch {
        /// What differed between the checkpoint and this invocation.
        what: String,
    },
    /// A checkpointed run was asked of an engine without a checkpoint
    /// seam (only the simulator, FR-FCFS and scheduler engines have
    /// one).
    NotCheckpointable {
        /// The engine's display name.
        engine: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownWorkload { requested, known } => {
                write!(
                    f,
                    "unknown workload {requested:?}; known: {}",
                    known.join(", ")
                )
            }
            Error::Sim(e) => write!(f, "simulation failed: {e}"),
            Error::WorkerPanic { job, message } => {
                write!(f, "parallel worker panicked on job {job}: {message}")
            }
            Error::JobLost { job } => {
                write!(f, "pool bug: job {job} never produced a result")
            }
            Error::Snapshot(e) => write!(f, "checkpoint failed: {e}"),
            Error::ResumeMismatch { what } => {
                write!(f, "checkpoint belongs to a different run: {what}")
            }
            Error::NotCheckpointable { engine } => {
                write!(f, "the {engine} engine cannot be checkpointed")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sim(e) => Some(e),
            Error::Snapshot(e) => Some(e),
            Error::UnknownWorkload { .. }
            | Error::WorkerPanic { .. }
            | Error::JobLost { .. }
            | Error::ResumeMismatch { .. }
            | Error::NotCheckpointable { .. } => None,
        }
    }
}

impl From<vrl_dram_sim::Error> for Error {
    fn from(e: vrl_dram_sim::Error) -> Self {
        Error::Sim(e)
    }
}

impl From<vrl_snap::SnapError> for Error {
    fn from(e: vrl_snap::SnapError) -> Self {
        Error::Snapshot(e)
    }
}

impl From<vrl_exec::ExecError<Error>> for Error {
    fn from(e: vrl_exec::ExecError<Error>) -> Self {
        match e {
            vrl_exec::ExecError::Job { error, .. } => error,
            vrl_exec::ExecError::Panic { job, message } => Error::WorkerPanic { job, message },
            vrl_exec::ExecError::Lost { job } => Error::JobLost { job },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_lists_alternatives() {
        let e = Error::UnknownWorkload {
            requested: "nope".into(),
            known: vec!["ferret".into(), "vips".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("nope") && msg.contains("ferret") && msg.contains("vips"));
    }

    #[test]
    fn sim_errors_convert_and_chain() {
        let inner = vrl_dram_sim::Error::SchedulerStalled { cycle: 5 };
        let e: Error = inner.clone().into();
        assert_eq!(e, Error::Sim(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
