//! # vrl-dram-sim — cycle-level DRAM bank simulator
//!
//! The in-house simulator the paper evaluates with (Section 4.1): a
//! single-bank, event-driven, cycle-accurate model of a memory controller
//! servicing a trace while scheduling per-row refreshes under a pluggable
//! policy.
//!
//! * [`timing`] — DDR3-style timing parameters and refresh latencies,
//! * [`bank`] — the bank state machine (open row, busy window),
//! * [`policy`] — the refresh policies: fixed-period auto-refresh,
//!   RAIDR \[27\] retention-aware binning, and the paper's VRL /
//!   VRL-Access (Algorithm 1),
//! * [`sim`] — the event-driven simulator,
//! * [`wheel`] — the bucketed timing-wheel refresh queue (O(1) amortized
//!   schedule/expire over the bank's per-row deadlines),
//! * [`stats`] — counters (refresh-busy cycles, stalls, hits/misses) and
//!   the wall-clock throughput meter,
//! * [`integrity`] — a charge-tracking checker that verifies no row ever
//!   drops below the sensing threshold under a policy (failure
//!   injection for the test suite),
//! * [`fault`] — a fault injector perturbing ground truth (VRT toggles,
//!   profiler optimism, temperature drift, dropped/late refreshes),
//! * [`guard`] — the runtime integrity guard: SECDED-band detection,
//!   ECC write-back correction, background scrub, and graceful policy
//!   degradation,
//! * [`error`] — typed errors replacing the old panic paths.
//!
//! # Example
//!
//! ```
//! use vrl_dram_sim::policy::AutoRefresh;
//! use vrl_dram_sim::sim::{SimConfig, Simulator};
//! use vrl_trace::{Op, TraceRecord};
//!
//! let trace = vec![TraceRecord::new(100, Op::Read, 7)];
//! let mut sim = Simulator::new(SimConfig::paper_default(), AutoRefresh::new(64.0));
//! let stats = sim.run(trace.into_iter(), 1.0 /* ms */);
//! assert!(stats.refresh_busy_cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod controller;
pub mod error;
pub mod fault;
pub mod guard;
pub mod integrity;
pub mod policy;
pub mod sim;
pub mod stats;
pub mod timing;
pub mod wheel;

pub use controller::{ControllerCursor, ControllerStats, FrFcfsController};
pub use error::Error;
pub use fault::{FaultConfig, FaultInjector};
pub use guard::{Guard, GuardConfig, GuardStats};
pub use policy::{
    AdaptivePolicy, AutoRefresh, DegradeAction, PolicyState, Raidr, RefreshPolicy, Vrl, VrlAccess,
};
pub use sim::{SimConfig, Simulator};
pub use stats::{SimStats, Throughput};
pub use timing::{RefreshLatency, TimingParams};
pub use wheel::RefreshQueue;
