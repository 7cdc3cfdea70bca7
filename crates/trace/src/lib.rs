//! # vrl-trace — memory-trace substrate
//!
//! The paper evaluates VRL-DRAM with memory traces of PARSEC-3.0
//! benchmarks and a `bgsave` server workload, generated with Ramulator.
//! Neither the traces nor the original binaries are available here, so
//! this crate provides the synthetic equivalent:
//!
//! * [`record`] — the trace record and operation types,
//! * [`addr`] — physical-address ↔ (bank, row, column) mapping,
//! * [`mod@format`] — a row-granular text trace format (parse/write),
//! * [`ramulator`] — the Ramulator CPU-trace format and its conversion
//!   to bank-local records,
//! * [`gen`] — parameterized workload generators, with one preset per
//!   PARSEC benchmark plus `bgsave`, emulating each benchmark's published
//!   footprint, locality, read/write mix, and intensity; its gap and
//!   Zipf-rank samplers are exact table lookups (crate-private `sample`),
//! * [`stats`] — trace statistics (rows touched, reuse, per-window
//!   coverage) that determine how much VRL-Access can gain.
//!
//! # Example
//!
//! ```
//! use vrl_trace::gen::{Workload, WorkloadSpec};
//!
//! let spec = WorkloadSpec::parsec("blackscholes").expect("known benchmark");
//! let trace: Vec<_> = Workload::new(spec, 8192, 7).records(1.0 /* ms */).collect();
//! assert!(!trace.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod format;
pub mod gen;
pub mod ramulator;
pub mod record;
mod sample;
pub mod stats;

pub use gen::{Workload, WorkloadSpec};
pub use record::{Op, TraceRecord};
