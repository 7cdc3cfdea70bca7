//! Cycle-accurate full-DIMM DDR command scheduler: channels × ranks ×
//! banks.
//!
//! Sits between the trace front end ([`vrl_trace`]) and the bank/policy
//! machinery of [`vrl_dram_sim`]: requests are steered through an
//! [`vrl_trace::addr::AddressMap`] to per-bank command FSMs, arbitrated
//! over per-channel command/data buses under rank-scoped (`tRRD`,
//! `tFAW`, `tRFC`) and channel-scoped (`tCCD`, bus turnaround) timing
//! constraints, and refreshed from per-bank timing-wheel queues with a
//! JEDEC-style postpone/pull-in elasticity window (DSARP-style
//! refresh-access parallelization). The hot loop keeps bank state in
//! struct-of-arrays form and allocates nothing in steady state; whole
//! DIMMs can also run as one independent [`Scheduler::for_channel`]
//! shard per channel, bit-identical to the single-instance run (the
//! [`mod@reference`] module keeps the original per-bank-heap engine as the
//! executable specification both are tested against).
//!
//! With one bank and parallelization disabled the scheduler is
//! bit-identical to [`vrl_dram_sim::controller::FrFcfsController`] — the
//! inter-bank constraints cannot bind, and the refresh loop reduces to
//! the controller's refresh-first arbitration (see
//! `tests/controller_equivalence.rs`).
//!
//! ```
//! use vrl_sched::{SchedConfig, Scheduler};
//! use vrl_dram_sim::policy::AutoRefresh;
//! use vrl_trace::record::{Op, TraceRecord};
//!
//! let config = SchedConfig::with_geometry(4, 64).unwrap();
//! let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).unwrap();
//! let trace = (0..128).map(|i| TraceRecord::new(i * 4, Op::Read, i as u32));
//! let stats = sched.run(trace, 1.0).unwrap();
//! assert_eq!(stats.sim.accesses, 128);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod reference;
pub mod sched;
pub mod stats;

pub use config::SchedConfig;
pub use reference::ReferenceScheduler;
pub use sched::{SchedCursor, Scheduler};
pub use stats::{LatencyHistogram, SchedStats};
