//! FR-FCFS memory-controller front end.
//!
//! The base [`Simulator`](crate::sim::Simulator) services the trace
//! strictly in order. Real controllers hold pending requests in a queue
//! and schedule **FR-FCFS** (first-ready, first-come-first-served): a
//! queued request that hits the open row goes ahead of older row-miss
//! requests, raising row-buffer hit rates under mixed traffic.
//!
//! The controller keeps the same per-row refresh machinery and policy
//! interface as the simulator, so VRL/RAIDR comparisons run unchanged on
//! top of the more realistic front end.

use std::collections::VecDeque;

use vrl_snap::Snapshot as _;
use vrl_trace::TraceRecord;

use crate::bank::BankState;
use crate::error::Error;
use crate::policy::RefreshPolicy;
use crate::sim::{NullObserver, SimConfig, SimObserver};
use crate::stats::SimStats;
use crate::timing::RefreshLatency;
use crate::wheel::RefreshQueue;

/// Statistics of a controller run: the base counters plus queue metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ControllerStats {
    /// The base simulator counters.
    pub sim: SimStats,
    /// Requests serviced ahead of an older queued request (FR-FCFS
    /// reorderings).
    pub reordered: u64,
    /// Maximum queue occupancy observed.
    pub max_queue_depth: usize,
    /// Cycles at which the full queue held back a pending arrival
    /// (each stalled cycle counted once).
    pub queue_stalls: u64,
}

/// The resumable position of a controller run: everything the scheduling
/// loop keeps outside the controller itself. Snapshotting a run means
/// saving the controller state plus this cursor; resuming regenerates
/// the deterministic trace, skips [`ControllerCursor::pulled`] records,
/// and continues the loop bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControllerCursor {
    /// Requests admitted but not yet serviced.
    queue: VecDeque<TraceRecord>,
    /// The scheduling clock.
    now: u64,
    /// Last cycle reported as a queue stall (each counted once).
    last_stall: Option<u64>,
    /// Records consumed from the source trace so far.
    pulled: u64,
}

impl ControllerCursor {
    /// A cursor at the start of a run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records consumed from the source trace so far (what a resumed run
    /// must skip when regenerating the trace).
    pub fn pulled(&self) -> u64 {
        self.pulled
    }
}

impl vrl_snap::Snapshot for ControllerCursor {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        let queued: Vec<TraceRecord> = self.queue.iter().copied().collect();
        queued.save(enc);
        enc.put_u64(self.now);
        self.last_stall.save(enc);
        enc.put_u64(self.pulled);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(ControllerCursor {
            queue: Vec::<TraceRecord>::load(dec)?.into(),
            now: dec.take_u64()?,
            last_stall: <Option<u64>>::load(dec)?,
            pulled: dec.take_u64()?,
        })
    }
}

impl vrl_snap::Snapshot for ControllerStats {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.sim.save(enc);
        enc.put_u64(self.reordered);
        enc.put_usize(self.max_queue_depth);
        enc.put_u64(self.queue_stalls);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(ControllerStats {
            sim: SimStats::load(dec)?,
            reordered: dec.take_u64()?,
            max_queue_depth: dec.take_usize()?,
            queue_stalls: dec.take_u64()?,
        })
    }
}

/// An FR-FCFS scheduling front end over one bank.
#[derive(Debug)]
pub struct FrFcfsController<P: RefreshPolicy> {
    config: SimConfig,
    queue_depth: usize,
    policy: P,
    bank: BankState,
    refresh_queue: RefreshQueue,
    stats: ControllerStats,
}

impl<P: RefreshPolicy> FrFcfsController<P> {
    /// Creates a controller with a bounded request queue.
    ///
    /// Per-row refresh deadlines live on the same bucketed timing wheel
    /// ([`RefreshQueue`]) the base simulator uses.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `queue_depth` is zero — a
    /// controller that can hold no request can never service the trace.
    pub fn new(config: SimConfig, policy: P, queue_depth: usize) -> Result<Self, Error> {
        if queue_depth == 0 {
            return Err(Error::InvalidConfig {
                reason: "FR-FCFS queue must hold at least one request".into(),
            });
        }
        let mut refresh_queue = RefreshQueue::new();
        for row in 0..config.rows {
            let period = config.timing.ms_to_cycles(policy.period_ms(row));
            let offset = if config.staggered {
                (row as u64).wrapping_mul(2654435761) % period.max(1)
            } else {
                0
            };
            refresh_queue.push(offset, row, offset);
        }
        Ok(FrFcfsController {
            config,
            queue_depth,
            policy,
            bank: BankState::new(),
            refresh_queue,
            stats: ControllerStats::default(),
        })
    }

    /// Runs the trace for `duration_ms`.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if an internal scheduling invariant breaks
    /// (an invalid FR-FCFS pick or a stalled scheduler); these indicate
    /// a bug rather than a property of the workload.
    pub fn run<I: Iterator<Item = TraceRecord>>(
        &mut self,
        trace: I,
        duration_ms: f64,
    ) -> Result<ControllerStats, Error> {
        self.run_observed(trace, duration_ms, &mut NullObserver)
    }

    /// Runs with an observer receiving refresh/activate events.
    ///
    /// # Errors
    ///
    /// See [`FrFcfsController::run`].
    pub fn run_observed<I, O>(
        &mut self,
        trace: I,
        duration_ms: f64,
        observer: &mut O,
    ) -> Result<ControllerStats, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let end = self.config.timing.ms_to_cycles(duration_ms);
        let mut trace = trace.take_while(|r| r.cycle < end).peekable();
        let mut cursor = ControllerCursor::new();
        self.run_span_observed(&mut cursor, &mut trace, end, u64::MAX, observer)?;
        Ok(self.finish(end))
    }

    /// Runs the scheduling loop until the clock reaches `stop_at` or all
    /// work before `end` is exhausted — the checkpointing building block.
    /// The pause point inserts no state change, so composing spans (with
    /// [`FrFcfsController::finish`] at the end) is bit-identical to
    /// [`FrFcfsController::run_observed`] by construction.
    ///
    /// Returns `true` if the run paused at `stop_at` with work remaining.
    ///
    /// # Errors
    ///
    /// See [`FrFcfsController::run`].
    pub fn run_span_observed<I, O>(
        &mut self,
        cursor: &mut ControllerCursor,
        trace: &mut std::iter::Peekable<I>,
        end: u64,
        stop_at: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        loop {
            cursor.now = cursor.now.max(self.bank.ready_at(cursor.now));
            if cursor.now >= stop_at {
                return Ok(true);
            }
            // Admit arrivals that have happened by `now`.
            while cursor.queue.len() < self.queue_depth {
                match trace.peek() {
                    Some(&r) if r.cycle <= cursor.now => {
                        trace.next();
                        cursor.pulled += 1;
                        cursor.queue.push_back(r);
                    }
                    _ => break,
                }
            }
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(cursor.queue.len());
            // A full queue with an arrival already waiting is back
            // pressure; report each stalled cycle once.
            if cursor.queue.len() == self.queue_depth
                && trace.peek().is_some_and(|r| r.cycle <= cursor.now)
                && cursor.last_stall != Some(cursor.now)
            {
                cursor.last_stall = Some(cursor.now);
                self.stats.queue_stalls += 1;
                observer.on_queue_stall(cursor.now, cursor.queue.len());
            }

            // Refresh-first: a due refresh (due <= now, due < end) runs
            // before queued demand. The wheel's pop is strictly-before,
            // so the horizon is one past `now`, capped at `end`.
            let refresh_horizon = cursor.now.saturating_add(1).min(end);
            if let Some((due, row, _)) = self.refresh_queue.pop_due_before(refresh_horizon) {
                self.execute_refresh(due, row, cursor.now, observer);
                continue;
            }

            // FR-FCFS pick among the queued requests.
            if let Some(idx) = self.pick(&cursor.queue) {
                if idx != 0 {
                    self.stats.reordered += 1;
                }
                let len = cursor.queue.len();
                let record = cursor
                    .queue
                    .remove(idx)
                    .ok_or(Error::QueueIndexInvalid { index: idx, len })?;
                self.service(record, cursor.now, observer);
                continue;
            }

            // Idle: advance to the next arrival or refresh, or finish.
            let next_arrival = trace.peek().map(|r| r.cycle);
            let next_refresh = self.refresh_queue.next_due().filter(|&d| d < end);
            match [next_arrival, next_refresh].into_iter().flatten().min() {
                Some(t) if t > cursor.now => cursor.now = t,
                // An event at or before `now` should have been admitted or
                // executed above; reaching here means no handler consumed
                // it and the loop would spin forever.
                Some(_) => return Err(Error::SchedulerStalled { cycle: cursor.now }),
                None => return Ok(false),
            }
        }
    }

    /// Finalizes the statistics after the last span (the tail of
    /// [`FrFcfsController::run_observed`]).
    pub fn finish(&mut self, end: u64) -> ControllerStats {
        self.stats.sim.total_cycles = end.max(self.bank.busy_until());
        self.stats.clone()
    }

    /// Appends the controller's full run-state — bank FSM, refresh
    /// timing-wheel, statistics, policy counters, and the scheduling
    /// cursor — to `enc`, where `P` supports state capture.
    pub fn save_state(&self, enc: &mut vrl_snap::Encoder, cursor: &ControllerCursor)
    where
        P: crate::policy::PolicyState,
    {
        self.bank.save(enc);
        self.refresh_queue.save(enc);
        self.stats.save(enc);
        self.policy.save_state(enc);
        cursor.save(enc);
    }

    /// Restores run-state captured by [`FrFcfsController::save_state`]
    /// into a freshly-constructed controller of the same configuration,
    /// returning the scheduling cursor to resume from.
    ///
    /// # Errors
    ///
    /// Returns [`vrl_snap::SnapError`] on truncated input or a snapshot
    /// from a differently-shaped controller.
    pub fn restore_state(
        &mut self,
        dec: &mut vrl_snap::Decoder<'_>,
    ) -> Result<ControllerCursor, vrl_snap::SnapError>
    where
        P: crate::policy::PolicyState,
    {
        self.bank = BankState::load(dec)?;
        self.refresh_queue = RefreshQueue::load(dec)?;
        self.stats = ControllerStats::load(dec)?;
        self.policy.restore_state(dec)?;
        ControllerCursor::load(dec)
    }

    /// FR-FCFS: the oldest request hitting the open row, else the oldest.
    fn pick(&self, queue: &VecDeque<TraceRecord>) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        if let Some(open) = self.bank.open_row() {
            if let Some(idx) = queue.iter().position(|r| r.row % self.config.rows == open) {
                return Some(idx);
            }
        }
        Some(0)
    }

    // One call site each, in `run_span_observed`'s loop: forced inline,
    // as in the scheduler's loop, whatever the caller's codegen units.
    #[inline(always)]
    fn execute_refresh<O: SimObserver>(&mut self, due: u64, row: u32, now: u64, observer: &mut O) {
        let start = self.bank.ready_at(now.max(due));
        let mut duration = 0;
        if self.bank.open_row().is_some() {
            self.bank.precharge();
            duration += self.config.timing.trp;
        }
        let kind = self.policy.refresh_kind(row);
        let refresh_cycles = self.config.timing.refresh_cycles(kind);
        duration += refresh_cycles;
        let done = self.bank.occupy(start, duration);
        self.stats.sim.refresh_busy_cycles += refresh_cycles;
        match kind {
            RefreshLatency::Full => self.stats.sim.full_refreshes += 1,
            RefreshLatency::Partial => self.stats.sim.partial_refreshes += 1,
        }
        observer.on_refresh(row, kind, done);
        let period = self.config.timing.ms_to_cycles(self.policy.period_ms(row));
        let next = due + period.max(1);
        self.refresh_queue.push(next, row, next);
    }

    #[inline(always)]
    fn service<O: SimObserver>(&mut self, record: TraceRecord, now: u64, observer: &mut O) {
        let row = record.row % self.config.rows;
        let start = self.bank.ready_at(now.max(record.cycle));
        self.stats.sim.stall_cycles += start - record.cycle;
        self.stats.sim.accesses += 1;
        let hit = self.bank.open_row() == Some(row);
        let latency = if hit {
            self.stats.sim.row_hits += 1;
            self.config.timing.hit_latency()
        } else {
            self.stats.sim.row_misses += 1;
            if self.bank.open_row().is_some() {
                self.config.timing.miss_latency()
            } else {
                self.config.timing.trcd + self.config.timing.tcl
            }
        };
        self.bank.occupy(start, latency);
        if !hit {
            self.bank.set_open_row(row);
            self.policy.on_activate(row);
            observer.on_activate(row, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AutoRefresh;
    use crate::sim::Simulator;
    use vrl_trace::Op;

    /// Interleaved rows arriving faster than service: FCFS thrashes the
    /// row buffer, FR-FCFS groups same-row requests.
    fn thrash_trace() -> Vec<TraceRecord> {
        // Pairs arrive nearly simultaneously: A B A B ... with tiny gaps
        // so several are queued at once.
        (0..4000u64)
            .map(|i| TraceRecord::new(i * 2, Op::Read, (i % 2) as u32 * 7))
            .collect()
    }

    #[test]
    fn frfcfs_beats_in_order_hit_rate() {
        let config = SimConfig::with_rows(16);
        let mut in_order = Simulator::new(config, AutoRefresh::new(64.0));
        let base = in_order.run(thrash_trace().into_iter(), 1.0);

        let mut controller =
            FrFcfsController::new(config, AutoRefresh::new(64.0), 16).expect("valid depth");
        let fr = controller
            .run(thrash_trace().into_iter(), 1.0)
            .expect("run");

        assert_eq!(fr.sim.accesses, base.accesses);
        assert!(
            fr.sim.hit_rate() > base.hit_rate() + 0.2,
            "FR-FCFS must group rows: {} vs {}",
            fr.sim.hit_rate(),
            base.hit_rate()
        );
        assert!(fr.reordered > 0);
        assert!(fr.max_queue_depth > 1);
    }

    #[test]
    fn refresh_work_is_unchanged_by_the_front_end() {
        let config = SimConfig::with_rows(64);
        let mut sim = Simulator::new(config, AutoRefresh::new(64.0));
        let s = sim.run(std::iter::empty(), 128.0);
        let mut controller =
            FrFcfsController::new(config, AutoRefresh::new(64.0), 8).expect("valid depth");
        let c = controller.run(std::iter::empty(), 128.0).expect("run");
        assert_eq!(c.sim.total_refreshes(), s.total_refreshes());
        assert_eq!(c.sim.refresh_busy_cycles, s.refresh_busy_cycles);
    }

    #[test]
    fn queue_depth_one_degenerates_to_fcfs() {
        let config = SimConfig::with_rows(16);
        let mut controller =
            FrFcfsController::new(config, AutoRefresh::new(64.0), 1).expect("valid depth");
        let c = controller
            .run(thrash_trace().into_iter(), 1.0)
            .expect("run");
        assert_eq!(c.reordered, 0, "depth-1 queue cannot reorder");
    }

    #[test]
    fn all_requests_are_serviced() {
        let trace: Vec<TraceRecord> = (0..500u64)
            .map(|i| TraceRecord::new(i * 50, Op::Write, (i % 5) as u32))
            .collect();
        let mut controller =
            FrFcfsController::new(SimConfig::with_rows(8), AutoRefresh::new(64.0), 4)
                .expect("valid depth");
        let c = controller.run(trace.into_iter(), 1.0).expect("run");
        assert_eq!(c.sim.accesses, 500);
    }

    #[test]
    fn controller_snapshot_resume_is_bit_identical() {
        use crate::policy::VrlAccess;
        use crate::sim::NullObserver;
        use vrl_retention::binning::BinningTable;
        use vrl_retention::profile::BankProfile;

        let bins =
            BinningTable::from_profile(&BankProfile::from_rows(std::iter::repeat_n(300.0, 16), 32));
        let config = SimConfig::with_rows(16);
        let mk = || {
            FrFcfsController::new(config, VrlAccess::new(bins.clone(), vec![3; 16]), 8)
                .expect("valid depth")
        };
        let trace = thrash_trace();
        let end = config.timing.ms_to_cycles(1.0);

        let mut whole = mk();
        let expected = whole.run(trace.clone().into_iter(), 1.0).expect("run");

        // Run to an arbitrary mid-run cycle, snapshot, and "crash".
        let mut first = mk();
        let mut cursor = ControllerCursor::new();
        let mut records = trace
            .clone()
            .into_iter()
            .take_while(|r| r.cycle < end)
            .peekable();
        // Pause mid-trace (arrivals run to ~8000 cycles).
        let paused = first
            .run_span_observed(&mut cursor, &mut records, end, 4000, &mut NullObserver)
            .expect("span");
        assert!(paused, "pausing mid-trace must leave work");
        let mut enc = vrl_snap::Encoder::new();
        first.save_state(&mut enc, &cursor);
        let bytes = enc.into_bytes();
        drop(first);

        // Resume into a fresh controller, skipping the pulled records.
        let mut resumed = mk();
        let mut dec = vrl_snap::Decoder::new(&bytes);
        let mut cursor = resumed.restore_state(&mut dec).expect("restore");
        dec.finish().expect("no trailing bytes");
        let mut rest = trace
            .into_iter()
            .skip(cursor.pulled() as usize)
            .take_while(|r| r.cycle < end)
            .peekable();
        resumed
            .run_span_observed(&mut cursor, &mut rest, end, u64::MAX, &mut NullObserver)
            .expect("resume");
        assert_eq!(resumed.finish(end), expected);
    }

    #[test]
    fn zero_depth_is_a_typed_error() {
        let err = FrFcfsController::new(SimConfig::with_rows(8), AutoRefresh::new(64.0), 0)
            .expect_err("zero depth must be rejected");
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("queue"));
    }
}
