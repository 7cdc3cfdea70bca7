//! # vrl-dram — Variable Refresh Latency DRAM
//!
//! The primary contribution of *VRL-DRAM: Improving DRAM Performance via
//! Variable Refresh Latency* (Das, Hassan, Mutlu — DAC 2018), built on
//! the substrate crates of this workspace:
//!
//! * [`mprsf`] — computing each row's **mean partial refreshes to sensing
//!   failure** from the analytical circuit model and the retention
//!   profile (Section 3.1),
//! * [`tau`] — selecting the partial-refresh latency `τ_partial` by
//!   sweeping the restore budget across data patterns (Section 3.1),
//! * [`plan`] — turning a profile into the controller state of
//!   Algorithm 1 (binning + saturated MPRSF counters) and into the
//!   simulator's VRL / VRL-Access policies (Section 3.2),
//! * [`physics`] — the charge physics adapter that lets the simulator's
//!   integrity checker verify a plan against the circuit model,
//! * [`overhead`] — closed-form refresh-overhead accounting,
//! * [`experiment`] — the end-to-end harness behind the paper's Figure 4
//!   (trace → engine → policy → statistics → power); one sweep runner,
//!   [`Experiment::run_matrix`], fans the (benchmark × policy) matrix on
//!   any engine across the `vrl-exec` worker pool, bit-identical on any
//!   pool shape,
//! * [`engine`] — the one engine vocabulary ([`Engine`], [`Outcome`])
//!   and the one entry point, [`Experiment::run`]: the single-bank
//!   simulator, the FR-FCFS controller, the multi-bank scheduler (one
//!   instance over a bank group or a whole DIMM, or one channel shard)
//!   and fault-injected runs with the optional runtime guard, observed
//!   and optionally segmented into progress spans ([`spans`]),
//! * [`checkpoint`] — crash-consistent checkpoint/resume: versioned,
//!   checksummed snapshots of a run's full engine state written
//!   atomically on a cycle cadence, resumable bit-identically, plus a
//!   matrix-level manifest for interrupted sweeps,
//! * [`error`] — typed errors for the harness APIs.
//!
//! # Quickstart
//!
//! ```
//! use vrl_dram::experiment::{Experiment, ExperimentConfig};
//!
//! // A small bank keeps the doctest fast; the paper uses 8192 rows.
//! let config = ExperimentConfig { rows: 256, duration_ms: 256.0, ..Default::default() };
//! let experiment = Experiment::new(config);
//! let row = experiment.compare("swaptions").expect("known benchmark");
//! assert!(row.vrl_cycles < row.raidr_cycles, "VRL must beat RAIDR");
//! assert!(row.vrl_access_cycles <= row.vrl_cycles);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
mod drive;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod mprsf;
pub mod overhead;
pub mod physics;
pub mod plan;
pub mod spans;
pub mod tau;

pub use checkpoint::{resume, CheckpointConfig, CheckpointOutcome, ResumeReport};
pub use engine::{Engine, Outcome};
pub use error::Error;
pub use experiment::{
    ComparisonRow, ConfigError, Experiment, ExperimentConfig, FaultedOutcome, MatrixCell,
    PolicyKind,
};
pub use mprsf::{Mprsf, MprsfCalculator};
pub use plan::RefreshPlan;

// Re-export the substrate crates so downstream users need one dependency.
pub use vrl_area as area;
pub use vrl_circuit as circuit;
pub use vrl_dram_sim as dram_sim;
pub use vrl_power as power;
pub use vrl_retention as retention;
pub use vrl_spice as spice;
pub use vrl_trace as trace;
