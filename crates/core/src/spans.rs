//! Span-segmented runs with progress callbacks.
//!
//! Pausing an engine at a cycle boundary inserts no state change, so a
//! run driven in spans is bit-identical to one unsegmented run.
//! [`Experiment::run`] uses that property for *streaming progress*:
//! `vrl-serve` passes the daemon's span cadence, so clients receive
//! per-span cycle counts while the final statistics stay byte-identical
//! to a direct, unsegmented run (asserted by the tests below and by the
//! serve bit-identity suite). Plain runs are spanned runs that never
//! pause.
//!
//! The `run_*_spanned_with` functions are one-line wrappers over
//! [`Experiment::run`], kept because the benchmark harness
//! (`perfbench/`) calls them.

use std::ops::ControlFlow;

use vrl_dram_sim::controller::ControllerStats;
use vrl_dram_sim::sim::{NullObserver, SimObserver};
use vrl_dram_sim::SimStats;
use vrl_sched::{SchedConfig, SchedStats};
use vrl_trace::TraceRecord;

use crate::drive::{drive, SpanEngine};
use crate::engine::{Engine, EngineRun, Outcome};
use crate::error::Error;
use crate::experiment::{Experiment, PolicyKind};

/// Progress from one completed span of a spanned run: the run paused at
/// `cycle` with simulation still ahead of it. Emitted only at pauses —
/// a run shorter than one span completes without progress callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanProgress {
    /// 1-based index of the span that just completed.
    pub span: u32,
    /// The cycle the engine paused at.
    pub cycle: u64,
    /// The run's final cycle (`duration_ms` in cycles).
    pub end: u64,
}

/// Drives a fresh engine over `trace` to the end of the run, pausing
/// every `span_cycles` cycles (`0` = never) to report progress.
pub(crate) struct Spanned<'a, I, O, F> {
    end: u64,
    trace: I,
    span_cycles: u64,
    observer: &'a mut O,
    on_span: &'a mut F,
}

impl<'a, I, O, F> Spanned<'a, I, O, F> {
    pub(crate) fn new(
        experiment: &Experiment,
        trace: I,
        span_cycles: u64,
        observer: &'a mut O,
        on_span: &'a mut F,
    ) -> Self {
        Spanned {
            end: experiment.config().end_cycle(),
            trace,
            span_cycles,
            observer,
            on_span,
        }
    }
}

impl<I, O, F> EngineRun for Spanned<'_, I, O, F>
where
    I: Iterator<Item = TraceRecord>,
    O: SimObserver,
    F: FnMut(SpanProgress),
{
    type Output = Outcome;

    fn drive<E: SpanEngine>(
        self,
        engine: E,
        wrap: fn(E::Stats) -> Outcome,
    ) -> Result<Outcome, Error> {
        let Spanned {
            end,
            trace,
            span_cycles,
            observer,
            on_span,
        } = self;
        let every = Some(span_cycles).filter(|&c| c > 0).unwrap_or(u64::MAX);
        let start = E::Cursor::default();
        let outcome = drive(
            engine,
            start,
            trace,
            end,
            every.min(end),
            every,
            observer,
            |pause| {
                let progress = SpanProgress {
                    span: pause.index,
                    cycle: pause.stop,
                    end,
                };
                on_span(progress);
                Ok(ControlFlow::Continue(()))
            },
        )?;
        Ok(wrap(outcome.completed().expect("spanned runs never halt")))
    }
}

impl Experiment {
    /// [`Experiment::run`] on [`Engine::Sim`] without an observer,
    /// returning the simulator's counters. Kept for `perfbench/`.
    pub fn run_policy_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        trace: I,
        span_cycles: u64,
        on_span: F,
    ) -> SimStats
    where
        I: Iterator<Item = TraceRecord> + Clone,
        F: FnMut(SpanProgress),
    {
        let outcome = self.run(
            &Engine::Sim,
            kind,
            trace,
            span_cycles,
            &mut NullObserver,
            on_span,
        );
        outcome
            .expect("the single-bank simulator cannot fail")
            .into_sim()
    }

    /// [`Experiment::run`] on [`Engine::FrFcfs`] without an observer.
    /// Kept for `perfbench/`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] for an invalid queue depth.
    pub fn run_frfcfs_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        trace: I,
        queue_depth: usize,
        span_cycles: u64,
        on_span: F,
    ) -> Result<ControllerStats, Error>
    where
        I: Iterator<Item = TraceRecord> + Clone,
        F: FnMut(SpanProgress),
    {
        let engine = Engine::FrFcfs { queue_depth };
        self.run(
            &engine,
            kind,
            trace,
            span_cycles,
            &mut NullObserver,
            on_span,
        )
        .map(Outcome::into_frfcfs)
    }

    /// [`Experiment::run`] on [`Engine::Sched`] without an observer.
    /// Kept for `perfbench/`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] for a scheduler configuration or
    /// invariant failure.
    pub fn run_scheduled_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        sched: SchedConfig,
        trace: I,
        span_cycles: u64,
        on_span: F,
    ) -> Result<SchedStats, Error>
    where
        I: Iterator<Item = TraceRecord> + Clone,
        F: FnMut(SpanProgress),
    {
        let engine = Engine::Sched(sched);
        self.run(
            &engine,
            kind,
            trace,
            span_cycles,
            &mut NullObserver,
            on_span,
        )
        .map(Outcome::into_sched)
    }

    /// [`Experiment::run`] on one [`Engine::Channel`] shard without an
    /// observer. Kept for `perfbench/`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] for an out-of-range channel or scheduler
    /// invariant failure.
    pub fn run_dimm_channel_spanned_with<I, F>(
        &self,
        kind: PolicyKind,
        sched: SchedConfig,
        channel: u32,
        trace: I,
        span_cycles: u64,
        on_span: F,
    ) -> Result<SchedStats, Error>
    where
        I: Iterator<Item = TraceRecord> + Clone,
        F: FnMut(SpanProgress),
    {
        let engine = Engine::Channel { sched, channel };
        self.run(
            &engine,
            kind,
            trace,
            span_cycles,
            &mut NullObserver,
            on_span,
        )
        .map(Outcome::into_sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::tests::run;
    use crate::experiment::ExperimentConfig;

    fn small() -> Experiment {
        Experiment::new(ExperimentConfig {
            rows: 256,
            duration_ms: 192.0,
            ..Default::default()
        })
    }

    #[test]
    fn spanned_sim_is_bit_identical_and_reports_progress() {
        let e = small();
        for kind in PolicyKind::ALL {
            let plain = e.run_policy(kind, "swaptions").unwrap();
            let trace = e.materialize_trace("swaptions").unwrap();
            let mut spans = Vec::new();
            let spanned =
                e.run_policy_spanned_with(kind, trace.iter().copied(), 500_000, |p| spans.push(p));
            assert_eq!(spanned, plain, "{kind:?} spanned run must be bit-identical");
            assert!(!spans.is_empty(), "a multi-span run reports progress");
            assert!(spans.windows(2).all(|w| w[0].cycle < w[1].cycle));
            assert!(spans.iter().all(|p| p.cycle < p.end));
        }
    }

    #[test]
    fn spanned_frfcfs_is_bit_identical() {
        let e = small();
        let plain = run(
            &e,
            &Engine::FrFcfs { queue_depth: 8 },
            PolicyKind::Vrl,
            "canneal",
        )
        .unwrap()
        .into_frfcfs();
        let trace = e.materialize_trace("canneal").unwrap();
        let mut spans = 0;
        let spanned = e
            .run_frfcfs_spanned_with(PolicyKind::Vrl, trace.iter().copied(), 8, 400_000, |_| {
                spans += 1;
            })
            .unwrap();
        assert_eq!(spanned, plain);
        assert!(spans > 0);
    }

    #[test]
    fn spanned_sched_is_bit_identical() {
        let e = small();
        let sched = e.sched_config(4).unwrap();
        let plain = run(&e, &Engine::Sched(sched), PolicyKind::VrlAccess, "bgsave")
            .unwrap()
            .into_sched();
        let trace = e.materialize_trace("bgsave").unwrap();
        let spanned = e
            .run_scheduled_spanned_with(
                PolicyKind::VrlAccess,
                sched,
                trace.iter().copied(),
                300_000,
                |_| {},
            )
            .unwrap();
        assert_eq!(spanned, plain);
    }

    #[test]
    fn spanned_dimm_channels_merge_to_the_serial_dimm_run() {
        let e = small();
        let sched = e.dimm_config(2, 1, 2).unwrap();
        let direct = run(&e, &Engine::Dimm(sched), PolicyKind::Vrl, "ferret")
            .unwrap()
            .into_sched();
        let trace = e.materialize_trace("ferret").unwrap();
        let mut merged = SchedStats::default();
        for channel in 0..sched.channels() {
            let shard = e
                .run_dimm_channel_spanned_with(
                    PolicyKind::Vrl,
                    sched,
                    channel,
                    trace.iter().copied(),
                    250_000,
                    |_| {},
                )
                .unwrap();
            merged = merged.merge(&shard);
        }
        assert_eq!(merged, direct);
    }

    #[test]
    fn zero_cadence_means_one_span_and_no_callbacks() {
        let e = small();
        let plain = e.run_policy(PolicyKind::Raidr, "swaptions").unwrap();
        let trace = e.materialize_trace("swaptions").unwrap();
        let spanned =
            e.run_policy_spanned_with(PolicyKind::Raidr, trace.iter().copied(), 0, |_| {
                panic!("no pauses expected")
            });
        assert_eq!(spanned, plain);
    }

    #[test]
    fn from_artifacts_shares_and_matches_fresh_builds() {
        let config = ExperimentConfig {
            rows: 256,
            duration_ms: 128.0,
            ..Default::default()
        };
        let fresh = Experiment::new(config);
        let shared =
            Experiment::from_artifacts(config, fresh.profile_shared(), fresh.plan_shared());
        assert!(std::sync::Arc::ptr_eq(
            &fresh.plan_shared(),
            &shared.plan_shared()
        ));
        let a = fresh.run_policy(PolicyKind::Vrl, "swaptions").unwrap();
        let b = shared.run_policy(PolicyKind::Vrl, "swaptions").unwrap();
        assert_eq!(a, b);
    }
}
