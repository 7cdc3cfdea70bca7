//! # vrl-obs — unified observability for the VRL-DRAM simulators
//!
//! One layer, three concerns, shared by every front end (`dram::sim`,
//! `dram::controller`, `sched`, `guard`, `serve`):
//!
//! 1. **Structured event tracing** — the [`Recorder`](recorder::Recorder)
//!    implements the simulator's observer trait and captures typed
//!    [`Event`](event::Event)s (activations, full/partial refreshes,
//!    postpones, pull-ins, scrubs, degrades, injected faults, queue
//!    stalls) into a bounded [`EventRing`](ring::EventRing). Overflow
//!    drops the *newest* events and counts them — recording never
//!    perturbs or blocks the simulation.
//! 2. **Metrics registry** — named monotonic counters, gauges, and
//!    fixed-bucket histograms ([`MetricsRegistry`](metrics::MetricsRegistry))
//!    with handle-based hot paths and deterministic cross-worker
//!    snapshot merging (counters sum, gauges max, histograms bucket-wise).
//! 3. **Profiling hooks** — RAII span timers
//!    ([`PhaseProfiler`](profile::PhaseProfiler)) that accumulate a
//!    per-phase wall/cycle breakdown.
//!
//! Exports go to Chrome `trace_event` JSON
//! ([`chrome_trace_json`](export::chrome_trace_json), loadable in
//! Perfetto or `chrome://tracing`) and flat JSON snapshots; the
//! [`validate`] module re-parses exported documents with a hand-rolled
//! JSON reader so the CLI and CI can check them without external tools.
//!
//! ## Zero-cost when off
//!
//! The observer trait's hooks all have no-op defaults and the simulators
//! take the observer generically, so the [`NopObserver`] path
//! monomorphises to straight-line code. The workspace test
//! `tests/observability.rs` asserts the observed-off and observed-on
//! runs are bit-identical.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod expose;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod ring;
pub mod series;
pub mod validate;

/// The observer trait every front end accepts — re-exported so callers
/// can depend on `vrl-obs` alone.
pub use vrl_dram_sim::sim::SimObserver as Observer;

/// The zero-cost "observability off" observer (re-export of the
/// simulator's `NullObserver`).
pub use vrl_dram_sim::sim::NullObserver as NopObserver;

/// Fan an event stream out to two observers at once (e.g. a `Guard`
/// plus a `Recorder`).
pub use vrl_dram_sim::sim::Fanout;

pub use event::{DegradeStep, Event, EventKind, ShedReason};
pub use export::chrome_trace_json;
pub use expose::{
    histogram_snapshot, histogram_total, is_name_sorted, parse_exposition, render_exposition,
    render_exposition_filtered, sanitize_name, scalar_values, ExpoFamily, ExpoKind,
};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::PhaseProfiler;
pub use recorder::{merge_streams, EventStream, Recorder};
pub use ring::EventRing;
pub use series::{SnapshotDelta, SnapshotRing, TimedSnapshot};
pub use validate::{validate_chrome_trace, TraceSummary};
