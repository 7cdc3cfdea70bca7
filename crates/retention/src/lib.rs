//! # vrl-retention — DRAM retention-time substrate
//!
//! The VRL-DRAM mechanism consumes a *retention-time profile* of the DRAM
//! chip: per-row knowledge of how long the weakest cell holds its data.
//! The paper assumes such a profile is available from prior profiling work
//! (RAIDR \[27\], REAPER \[32\], AVATAR \[33\]); this crate provides the
//! synthetic equivalent:
//!
//! * [`distribution`] — a truncated lognormal retention-time distribution
//!   calibrated so that per-row weakest-cell binning reproduces the
//!   paper's Figure 3b counts (68 / 101 / 145 / 7878 rows per bin on an
//!   8192-row bank),
//! * [`profile`] — deterministic per-cell/per-row profile generation,
//! * [`binning`] — RAIDR-style refresh-period binning (Figure 3b),
//! * [`leakage`] — the charge-decay law shared with the circuit model,
//! * [`temperature`] — derating a profile to a hotter operating point,
//! * [`vrt`] — the two-state variable-retention-time (AVATAR-style)
//!   process that the simulator's fault injector toggles at runtime.
//!
//! Profiling error itself is not modelled here: the fault injector in
//! `vrl-dram-sim` (`OptimismFault`) degrades a fraction of rows' true
//! retention below the profiled value a plan was built from.
//!
//! # Example
//!
//! ```
//! use vrl_retention::distribution::RetentionDistribution;
//! use vrl_retention::profile::BankProfile;
//! use vrl_retention::binning::BinningTable;
//!
//! let dist = RetentionDistribution::liu_et_al();
//! let profile = BankProfile::generate(&dist, 8192, 32, 42);
//! let table = BinningTable::from_profile(&profile);
//! // The vast majority of rows land in the 256 ms bin (Figure 3b).
//! assert!(table.count(vrl_retention::binning::RefreshBin::Ms256) > 7000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binning;
pub mod distribution;
pub mod leakage;
pub mod profile;
pub mod temperature;
pub mod vrt;

pub use binning::{BinningTable, RefreshBin};
pub use distribution::RetentionDistribution;
pub use leakage::LeakageModel;
pub use profile::{BankProfile, RowProfile};
