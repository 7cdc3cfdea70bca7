//! The one span driver behind every engine run.
//!
//! Each engine the harness drives — the single-bank [`Simulator`], the
//! [`FrFcfsController`], and the multi-bank [`Scheduler`] — can pause at
//! a cycle boundary without changing its state, so a run split into
//! spans is bit-identical to one unsegmented run. [`drive`] is the only
//! loop over those spans. Plain runs never pause, spanned runs report
//! progress at each pause, and checkpointed and resumed runs write a
//! snapshot there and may halt.

use std::iter::Peekable;
use std::ops::ControlFlow;

use vrl_dram_sim::controller::{ControllerCursor, ControllerStats, FrFcfsController};
use vrl_dram_sim::policy::{PolicyState, RefreshPolicy};
use vrl_dram_sim::sim::{SimObserver, Simulator};
use vrl_dram_sim::SimStats;
use vrl_sched::{SchedCursor, SchedStats, Scheduler};
use vrl_snap::{Decoder, Encoder, SnapError};
use vrl_trace::TraceRecord;

use crate::checkpoint::CheckpointOutcome;
use crate::error::Error;

/// An engine the span driver can run, pause, finish, and snapshot.
pub(crate) trait SpanEngine {
    /// Where a paused run picks up: the simulator's consumed-record
    /// count, or a queueing engine's scheduling cursor.
    type Cursor: Default;
    /// The engine's final statistics.
    type Stats;

    /// Runs until `stop` or until all work before `end` is done;
    /// returns `true` if it paused with work left.
    fn run_span<I, O>(
        &mut self,
        cursor: &mut Self::Cursor,
        trace: &mut Peekable<I>,
        end: u64,
        stop: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver;

    /// Finalizes the statistics at `end`.
    fn finish_run<O: SimObserver>(&mut self, end: u64, observer: &mut O) -> Self::Stats;

    /// Trace records consumed so far (what a resumed run skips).
    fn consumed(cursor: &Self::Cursor) -> u64;

    /// Appends the engine's run-state to `enc`.
    fn save_run(&self, cursor: &Self::Cursor, enc: &mut Encoder);

    /// Restores state written by [`SpanEngine::save_run`] and returns
    /// the cursor to continue from; `consumed` is the snapshot's record
    /// count.
    fn restore_run(
        &mut self,
        consumed: u64,
        dec: &mut Decoder<'_>,
    ) -> Result<Self::Cursor, SnapError>;
}

impl<P: RefreshPolicy + PolicyState> SpanEngine for Simulator<P> {
    type Cursor = u64;
    type Stats = SimStats;

    fn run_span<I, O>(
        &mut self,
        consumed: &mut u64,
        trace: &mut Peekable<I>,
        end: u64,
        stop: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let span_end = stop.min(end);
        *consumed += self.run_span_observed(trace, span_end, observer);
        Ok(span_end < end)
    }

    fn finish_run<O: SimObserver>(&mut self, end: u64, observer: &mut O) -> SimStats {
        self.finish_observed(end, observer)
    }

    fn consumed(consumed: &u64) -> u64 {
        *consumed
    }

    fn save_run(&self, _consumed: &u64, enc: &mut Encoder) {
        self.save_state(enc);
    }

    fn restore_run(&mut self, consumed: u64, dec: &mut Decoder<'_>) -> Result<u64, SnapError> {
        self.restore_state(dec)?;
        Ok(consumed)
    }
}

/// The FR-FCFS controller and the scheduler share one span interface: a
/// scheduling cursor that also counts the records it pulled.
macro_rules! queueing_engine {
    ($engine:ident, $cursor:ty, $stats:ty) => {
        impl<P: RefreshPolicy + PolicyState> SpanEngine for $engine<P> {
            type Cursor = $cursor;
            type Stats = $stats;

            fn run_span<I, O>(
                &mut self,
                cursor: &mut $cursor,
                trace: &mut Peekable<I>,
                end: u64,
                stop: u64,
                observer: &mut O,
            ) -> Result<bool, Error>
            where
                I: Iterator<Item = TraceRecord>,
                O: SimObserver,
            {
                Ok(self.run_span_observed(cursor, trace, end, stop, observer)?)
            }

            fn finish_run<O: SimObserver>(&mut self, end: u64, _observer: &mut O) -> $stats {
                self.finish(end)
            }

            fn consumed(cursor: &$cursor) -> u64 {
                cursor.pulled()
            }

            fn save_run(&self, cursor: &$cursor, enc: &mut Encoder) {
                self.save_state(enc, cursor);
            }

            fn restore_run(&mut self, _: u64, dec: &mut Decoder<'_>) -> Result<$cursor, SnapError> {
                self.restore_state(dec)
            }
        }
    };
}

queueing_engine!(FrFcfsController, ControllerCursor, ControllerStats);
queueing_engine!(Scheduler, SchedCursor, SchedStats);

/// A run paused at `stop` with simulation still ahead of it.
pub(crate) struct Pause<'a, E: SpanEngine, O> {
    /// 1-based count of this call's pauses.
    pub index: u32,
    /// The cycle the engine paused at.
    pub stop: u64,
    /// The paused engine, its cursor, and its observer.
    pub engine: &'a E,
    pub cursor: &'a E::Cursor,
    pub observer: &'a O,
}

/// Drives `engine` over `trace` to `end`, starting from `cursor` (the
/// records it already consumed are skipped). The first span stops at
/// `first_stop` and each later one `every` cycles on; `on_pause` runs
/// at every pause and may halt the run there.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<E, I, O, F>(
    mut engine: E,
    mut cursor: E::Cursor,
    trace: I,
    end: u64,
    first_stop: u64,
    every: u64,
    observer: &mut O,
    mut on_pause: F,
) -> Result<CheckpointOutcome<E::Stats>, Error>
where
    E: SpanEngine,
    I: Iterator<Item = TraceRecord>,
    O: SimObserver,
    F: FnMut(Pause<'_, E, O>) -> Result<ControlFlow<()>, Error>,
{
    let skip = E::consumed(&cursor) as usize;
    let mut trace = trace.take_while(|r| r.cycle < end).skip(skip).peekable();
    let mut stop = first_stop;
    let mut index = 0;
    while engine.run_span(&mut cursor, &mut trace, end, stop, observer)? {
        index += 1;
        let pause = Pause {
            index,
            stop,
            engine: &engine,
            cursor: &cursor,
            observer,
        };
        if on_pause(pause)?.is_break() {
            return Ok(CheckpointOutcome::Halted { checkpoints: index });
        }
        stop = stop.saturating_add(every);
    }
    Ok(CheckpointOutcome::Completed(
        engine.finish_run(end, observer),
    ))
}
