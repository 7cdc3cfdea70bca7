//! The multi-channel, multi-rank, multi-bank command scheduler.
//!
//! Per-channel FR-FCFS request queues feed per-bank state machines.
//! Each channel owns a command bus and a data bus; each rank scopes the
//! activate constraints (`tRRD`, `tFAW`) and the refresh-start spacing
//! (`tRFC`). Each bank keeps its per-row refresh deadlines on its own
//! timing wheel; with refresh-access parallelization enabled, due
//! refreshes yield to queued demand on their bank (within the
//! elasticity window) and idle banks pull upcoming refreshes in early,
//! so refresh work hides behind demand service on other banks instead
//! of blocking it.
//!
//! # Struct-of-arrays hot loop
//!
//! Bank state lives in parallel arrays (`open_row`, `busy_until`,
//! `next_due`, `queued`) rather than one heap object per bank, and a
//! scheduling iteration costs O(1) in the common case, scanning the
//! channel's banks only when a scan can change its outcome:
//! - the clock jump stops at the first bank free at `now` (the jump is
//!   then a no-op) and takes the minimum release only when every bank
//!   is busy;
//! - the refresh election and the pull-in bail on `due_bound`, a
//!   per-channel lower bound on the wheels' cached head deadlines,
//!   while nothing is due within their horizon;
//! - the advance target skips the release scan when no demand is
//!   queued, and the refresh scan when `due_bound` is at or past the
//!   best target found so far (a refresh can never wake the lane
//!   earlier than its deadline);
//! - the FR-FCFS pick is one pass over the queue, and admission pulls
//!   from the trace only when the lane's buffer is empty.
//!
//! The skips are exact, so every decision is the one a full scan would
//! make: `ReferenceScheduler` and the recorded statistics in the root
//! `tests/sched_identity.rs` hold the loop to that. The four-activate
//! window is a fixed ring (`ActWindow`), and the steady-state loop
//! performs no heap allocation at all (`tests/zero_alloc.rs` holds it
//! to that).
//!
//! # Channel sharding
//!
//! Channels share nothing, so a whole-DIMM run executes each channel's
//! scheduling loop independently, interleaved in bounded spans
//! ([`CHANNEL_SPAN`] cycles) only to keep trace admission in arrival
//! order. [`Scheduler::for_channel`] builds a single-channel shard of
//! the same DIMM; running one shard per channel (in parallel, via
//! `vrl-exec`) produces bit-identical per-channel decision sequences —
//! and, merged, bit-identical statistics — to the whole-DIMM run,
//! because each lane's inputs are the same either way.
//!
//! With one bank and parallelization off, the scheduler's decision
//! sequence is exactly [`FrFcfsController`]'s: refresh-first, then the
//! FR-FCFS pick, then an idle jump. The inter-bank constraints cannot
//! bind with a single bank (see
//! [`TimingParams::paper_default`](vrl_dram_sim::timing::TimingParams::paper_default)),
//! so the two engines produce bit-identical counters — the regression
//! test in `tests/controller_equivalence.rs` holds the scheduler to
//! that, and holds the SoA engine to the per-bank-heap
//! [`ReferenceScheduler`](crate::reference::ReferenceScheduler) across
//! full-DIMM geometries.
//!
//! [`FrFcfsController`]: vrl_dram_sim::controller::FrFcfsController

use std::collections::VecDeque;

use vrl_trace::{Op, TraceRecord};

use vrl_dram_sim::error::Error;
use vrl_dram_sim::policy::{ActivationEffect, RefreshPolicy};
use vrl_dram_sim::sim::{NullObserver, SimObserver};
use vrl_dram_sim::timing::RefreshLatency;
use vrl_dram_sim::wheel::RefreshQueue;

use crate::config::SchedConfig;
use crate::stats::SchedStats;

/// Cycles each channel runs ahead before the whole-DIMM loop rotates to
/// the next channel. Any value preserves bit-identity (channels share
/// nothing; spans only bound trace-admission lookahead); this one keeps
/// buffered arrivals small while amortizing the rotation.
pub const CHANNEL_SPAN: u64 = 1 << 20;

/// Sentinel for "no open row" in the `open_row` array (row indices are
/// always `< rows_per_bank`).
const NO_ROW: u32 = u32::MAX;

/// The clock after jumping to the earliest cycle any of a channel's
/// banks accepts a command: `max(now, min(busy))`. A bank already free
/// at `now` makes the jump a no-op, so the minimum is taken only when
/// every bank is busy (a channel owns at least one bank).
#[inline]
fn clock_jump(busy_until: &[u64], now: u64) -> u64 {
    let mut earliest = u64::MAX;
    for &busy in busy_until {
        if busy <= now {
            return now;
        }
        earliest = earliest.min(busy);
    }
    earliest
}

/// A queued request, steered to its **global** bank on admission.
#[derive(Debug, Clone, Copy)]
struct Pending {
    record: TraceRecord,
    bank: u32,
    row: u32,
}

impl vrl_snap::Snapshot for Pending {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.record.save(enc);
        enc.put_u32(self.bank);
        enc.put_u32(self.row);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(Pending {
            record: TraceRecord::load(dec)?,
            bank: dec.take_u32()?,
            row: dec.take_u32()?,
        })
    }
}

/// The last four activate issue cycles of one rank, as a fixed ring —
/// the `tFAW` window without a `VecDeque`'s heap storage.
#[derive(Debug, Default, Clone, Copy)]
struct ActWindow {
    buf: [u64; 4],
    len: u8,
    head: u8,
}

impl ActWindow {
    fn push(&mut self, at: u64) {
        if self.len < 4 {
            self.buf[(self.head + self.len) as usize % 4] = at;
            self.len += 1;
        } else {
            self.buf[self.head as usize] = at;
            self.head = (self.head + 1) % 4;
        }
    }

    /// The window's oldest activate, once four have been seen — the
    /// cycle `tFAW` is measured from.
    fn oldest_if_full(&self) -> Option<u64> {
        (self.len == 4).then(|| self.buf[self.head as usize])
    }

    /// Oldest-to-newest, for canonical serialization (reloading by
    /// re-pushing yields `head == 0`, so save → load → save is
    /// byte-stable).
    fn ordered(&self) -> Vec<u64> {
        (0..self.len)
            .map(|i| self.buf[(self.head + i) as usize % 4])
            .collect()
    }

    fn from_ordered(acts: &[u64]) -> Self {
        let mut w = ActWindow::default();
        for &at in acts {
            w.push(at);
        }
        w
    }
}

/// Per-rank arbitration state: `tRRD`, the `tFAW` window, and the
/// `tRFC` refresh-start spacing all scope to one rank.
#[derive(Debug, Default)]
struct RankWindow {
    last_act: Option<(u64, u32)>,
    acts: ActWindow,
    last_refresh: Option<u64>,
}

impl vrl_snap::Snapshot for RankWindow {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.last_act.save(enc);
        self.acts.ordered().save(enc);
        self.last_refresh.save(enc);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(RankWindow {
            last_act: <Option<(u64, u32)>>::load(dec)?,
            acts: ActWindow::from_ordered(&Vec::<u64>::load(dec)?),
            last_refresh: <Option<u64>>::load(dec)?,
        })
    }
}

/// One channel's shared-bus arbitration state.
///
/// The command bus issues one command per cycle; the data bus spaces
/// CAS bursts of *different* banks by `tCCD` (plus the turnaround
/// penalty on a read/write direction change); each rank limits
/// activates by `tRRD` (different banks) and the four-activate window
/// `tFAW`, and spaces refresh starts by `tRFC`. Same-bank spacing
/// needs no arbitration: the bank occupancy model already holds a bank
/// for the whole lumped operation.
#[derive(Debug)]
struct ChannelBus {
    last_cmd: Option<u64>,
    last_cas: Option<(u64, u32, bool)>,
    ranks: Vec<RankWindow>,
}

impl ChannelBus {
    fn new(ranks: usize) -> Self {
        ChannelBus {
            last_cmd: None,
            last_cas: None,
            ranks: (0..ranks).map(|_| RankWindow::default()).collect(),
        }
    }

    /// Earliest issue cycle at or after `start` honoring the activate
    /// constraints for `bank` (a global bank index) on `rank`.
    fn act_bound(
        &self,
        mut start: u64,
        rank: usize,
        bank: u32,
        timing: &vrl_dram_sim::TimingParams,
    ) -> u64 {
        let r = &self.ranks[rank];
        if let Some((at, b)) = r.last_act {
            if b != bank {
                start = start.max(at + timing.trrd);
            }
        }
        if let Some(oldest) = r.acts.oldest_if_full() {
            start = start.max(oldest + timing.tfaw);
        }
        start
    }

    /// Earliest issue cycle at or after `start` whose CAS (at
    /// `start + cas_offset`) honors the data-bus constraints.
    fn cas_bound(
        &self,
        start: u64,
        cas_offset: u64,
        bank: u32,
        is_write: bool,
        timing: &vrl_dram_sim::TimingParams,
    ) -> u64 {
        if let Some((at, b, was_write)) = self.last_cas {
            if b != bank {
                let gap = timing.tccd
                    + if was_write != is_write {
                        timing.bus_turnaround
                    } else {
                        0
                    };
                let bound = at + gap;
                if start + cas_offset < bound {
                    return bound - cas_offset;
                }
            }
        }
        start
    }

    /// Claims the command bus at or after `start` (one command per
    /// cycle), returning the issue cycle.
    fn claim_cmd(&mut self, start: u64) -> u64 {
        let at = match self.last_cmd {
            Some(c) if start <= c => c + 1,
            _ => start,
        };
        self.last_cmd = Some(at);
        at
    }

    fn note_act(&mut self, at: u64, rank: usize, bank: u32) {
        let r = &mut self.ranks[rank];
        r.last_act = Some((at, bank));
        r.acts.push(at);
    }

    fn note_cas(&mut self, at: u64, bank: u32, is_write: bool) {
        self.last_cas = Some((at, bank, is_write));
    }
}

impl vrl_snap::Snapshot for ChannelBus {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.last_cmd.save(enc);
        self.last_cas.save(enc);
        self.ranks.save(enc);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(ChannelBus {
            last_cmd: <Option<u64>>::load(dec)?,
            last_cas: <Option<(u64, u32, bool)>>::load(dec)?,
            ranks: Vec::<RankWindow>::load(dec)?,
        })
    }
}

/// One channel's resumable loop state: its request queue, its buffered
/// (pulled-but-not-admitted) arrivals, its clock, and its stall latch.
#[derive(Debug, Default)]
struct LaneCursor {
    queue: VecDeque<Pending>,
    buffer: VecDeque<Pending>,
    now: u64,
    last_stall: Option<u64>,
    /// The last advance target overshot the span boundary, so `now`
    /// was clamped to it: this clock value is a synthetic visit an
    /// unsharded run never makes. Nothing can fire here (the state is
    /// unchanged since the last genuine decision point), but the
    /// pull-in scan — whose lookahead horizon is anchored at `now` —
    /// must not run until the clock reaches a genuine event again, or
    /// it would pull refreshes in earlier than an independent run of
    /// this channel would.
    coasting: bool,
}

impl vrl_snap::Snapshot for LaneCursor {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        let queued: Vec<Pending> = self.queue.iter().copied().collect();
        queued.save(enc);
        let buffered: Vec<Pending> = self.buffer.iter().copied().collect();
        buffered.save(enc);
        enc.put_u64(self.now);
        self.last_stall.save(enc);
        enc.put_bool(self.coasting);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(LaneCursor {
            queue: Vec::<Pending>::load(dec)?.into(),
            buffer: Vec::<Pending>::load(dec)?.into(),
            now: dec.take_u64()?,
            last_stall: <Option<u64>>::load(dec)?,
            coasting: dec.take_bool()?,
        })
    }
}

/// The resumable position of a scheduler run: everything the scheduling
/// loop keeps outside the scheduler itself (mirrors
/// [`ControllerCursor`](vrl_dram_sim::controller::ControllerCursor)) —
/// one lane per active channel plus the count of records consumed from
/// the source trace.
#[derive(Debug, Default)]
pub struct SchedCursor {
    /// Per-channel loop state; sized lazily on first use.
    lanes: Vec<LaneCursor>,
    /// Records consumed from the source trace so far (admitted or
    /// buffered).
    pulled: u64,
}

impl SchedCursor {
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

impl vrl_snap::Snapshot for SchedCursor {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.lanes.save(enc);
        enc.put_u64(self.pulled);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(SchedCursor {
            lanes: Vec::<LaneCursor>::load(dec)?,
            pulled: dec.take_u64()?,
        })
    }
}

/// The cycle-accurate DIMM scheduler (see the module docs for the
/// struct-of-arrays layout and the channel-sharding contract).
///
/// # Example
///
/// ```
/// use vrl_dram_sim::policy::AutoRefresh;
/// use vrl_sched::{SchedConfig, Scheduler};
///
/// let config = SchedConfig::with_geometry(4, 64).expect("geometry");
/// let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
/// let stats = sched.run(std::iter::empty(), 64.0).expect("run");
/// // Every one of the 256 rows refreshed once per 64 ms.
/// assert_eq!(stats.sim.total_refreshes(), 256);
/// ```
#[derive(Debug)]
pub struct Scheduler<P: RefreshPolicy> {
    config: SchedConfig,
    policy: P,
    /// What [`RefreshPolicy::on_activate`] needs, cached: lazily
    /// deferrable policies skip the call in the hot loop entirely.
    effect: ActivationEffect,
    /// First channel this instance drives (0 for a whole-DIMM run).
    first_channel: u32,
    /// Number of channels this instance drives.
    active_channels: u32,
    /// Global index of the first bank this instance drives.
    bank_offset: usize,
    /// Open row per local bank (`NO_ROW` when closed).
    open_row: Vec<u32>,
    /// First free cycle per local bank.
    busy_until: Vec<u64>,
    /// Cached head deadline of each bank's wheel (`u64::MAX` = empty);
    /// recomputed after every wheel pop/push.
    next_due: Vec<u64>,
    /// Per-channel lower bound on `min(next_due)` over the channel's
    /// banks. Lets the per-iteration refresh election, pull-in scan and
    /// advance target skip their bank scans in O(1) when no deadline is
    /// near: lowered whenever a bank's `next_due` drops, tightened to
    /// the exact minimum by each full election or advance-target scan.
    /// Derived state — rebuilt on restore, never serialized.
    due_bound: Vec<u64>,
    /// Per-row refresh deadlines, per local bank.
    wheels: Vec<RefreshQueue>,
    /// Queued-request count per local bank — O(1) contention checks.
    /// Rebuilt from the cursor on restore, never serialized.
    queued: Vec<u32>,
    /// Rows activated since their last refresh, one bit per local
    /// `(bank, row)` — the deferred-`on_activate` set for
    /// [`ActivationEffect::IdempotentReset`] policies.
    touched: Vec<u64>,
    /// Per-channel bus arbitration state.
    buses: Vec<ChannelBus>,
    /// Per-bank stats vectors are full-DIMM sized and indexed by
    /// **global** bank, so shard stats merge elementwise.
    stats: SchedStats,
}

impl<P: RefreshPolicy> Scheduler<P> {
    /// Creates a whole-DIMM scheduler; each bank's initial deadlines
    /// are staggered across the row's period by the same hash the
    /// single-bank engines use, keyed by the global row index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the queue depth is zero.
    pub fn new(config: SchedConfig, policy: P) -> Result<Self, Error> {
        Self::build(config, policy, 0, config.channels())
    }

    /// Creates a shard driving only `channel` of the configured DIMM.
    ///
    /// The shard steers with the full DIMM geometry and silently drops
    /// records owned by other channels, so every shard can consume the
    /// same unfiltered trace; running one shard per channel yields
    /// per-channel results bit-identical to [`Scheduler::new`]'s
    /// whole-DIMM run (merge shard stats with
    /// [`SchedStats::merge`](crate::stats::SchedStats::merge)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the queue depth is zero or
    /// `channel` is out of range.
    pub fn for_channel(config: SchedConfig, policy: P, channel: u32) -> Result<Self, Error> {
        if channel >= config.channels() {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "channel {channel} out of range: the DIMM has {} channels",
                    config.channels()
                ),
            });
        }
        Self::build(config, policy, channel, 1)
    }

    fn build(
        config: SchedConfig,
        policy: P,
        first_channel: u32,
        active_channels: u32,
    ) -> Result<Self, Error> {
        if config.queue_depth == 0 {
            return Err(Error::InvalidConfig {
                reason: "scheduler queue must hold at least one request".into(),
            });
        }
        let banks_per_channel = config.banks_per_channel() as usize;
        let bank_offset = first_channel as usize * banks_per_channel;
        let active_banks = active_channels as usize * banks_per_channel;
        let rows = config.rows_per_bank() as usize;

        let mut wheels = Vec::with_capacity(active_banks);
        let mut next_due = Vec::with_capacity(active_banks);
        for local in 0..active_banks {
            let bank = (bank_offset + local) as u32;
            let mut refreshes = RefreshQueue::new();
            for row in 0..config.rows_per_bank() {
                let global = config.global_row(bank, row);
                let period = config.timing.ms_to_cycles(policy.period_ms(global));
                let offset = if config.staggered {
                    (global as u64).wrapping_mul(2654435761) % period.max(1)
                } else {
                    0
                };
                refreshes.push(offset, row, offset);
            }
            next_due.push(refreshes.next_due().unwrap_or(u64::MAX));
            wheels.push(refreshes);
        }
        let due_bound = next_due
            .chunks(banks_per_channel)
            .map(|chunk| chunk.iter().copied().min().unwrap_or(u64::MAX))
            .collect();
        let effect = policy.activation_effect();
        let banks = config.banks() as usize;
        Ok(Scheduler {
            config,
            effect,
            policy,
            first_channel,
            active_channels,
            bank_offset,
            open_row: vec![NO_ROW; active_banks],
            busy_until: vec![0; active_banks],
            next_due,
            due_bound,
            wheels,
            queued: vec![0; active_banks],
            touched: vec![0; (active_banks * rows).div_ceil(64)],
            buses: (0..active_channels)
                .map(|_| ChannelBus::new(config.ranks() as usize))
                .collect(),
            stats: SchedStats {
                per_bank_refreshes: vec![0; banks],
                per_bank_accesses: vec![0; banks],
                ..SchedStats::default()
            },
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// The policy, for inspection.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Runs the trace for `duration_ms`.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if an internal scheduling invariant breaks;
    /// these indicate a bug rather than a property of the workload.
    pub fn run<I: Iterator<Item = TraceRecord>>(
        &mut self,
        trace: I,
        duration_ms: f64,
    ) -> Result<SchedStats, Error> {
        self.run_observed(trace, duration_ms, &mut NullObserver)
    }

    /// Runs with an observer receiving refresh/activate events, keyed
    /// by global row index (`bank * rows_per_bank + row`).
    ///
    /// In a whole-DIMM run the observer sees channels interleaved in
    /// [`CHANNEL_SPAN`] blocks; per-channel event streams (and their
    /// deterministic merge) come from running one
    /// [`Scheduler::for_channel`] shard per channel instead.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::run`].
    pub fn run_observed<I, O>(
        &mut self,
        trace: I,
        duration_ms: f64,
        observer: &mut O,
    ) -> Result<SchedStats, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let end = self.config.timing.ms_to_cycles(duration_ms);
        let mut trace = trace.take_while(|r| r.cycle < end).peekable();
        let mut cursor = SchedCursor::new();
        self.run_span_observed(&mut cursor, &mut trace, end, u64::MAX, observer)?;
        Ok(self.finish(end))
    }

    /// Runs the scheduling loop until every channel's clock reaches
    /// `stop_at` or all work before `end` is exhausted — the
    /// checkpointing building block. The pause point inserts no state
    /// change, so composing spans (with [`Scheduler::finish`] at the
    /// end) is bit-identical to [`Scheduler::run_observed`] by
    /// construction.
    ///
    /// Returns `true` if the run paused at `stop_at` with work
    /// remaining.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::run`]; also rejects a cursor whose lane count
    /// does not match this scheduler's channel count.
    pub fn run_span_observed<I, O>(
        &mut self,
        cursor: &mut SchedCursor,
        trace: &mut std::iter::Peekable<I>,
        end: u64,
        stop_at: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let active = self.active_channels as usize;
        if cursor.lanes.is_empty() {
            cursor.lanes = std::iter::repeat_with(LaneCursor::default)
                .take(active)
                .collect();
        } else if cursor.lanes.len() != active {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "cursor has {} channel lanes, scheduler drives {active}",
                    cursor.lanes.len()
                ),
            });
        }
        if active == 1 {
            return self.run_channel_span(cursor, trace, 0, end, stop_at, u64::MAX, observer);
        }
        loop {
            let base = cursor.lanes.iter().map(|l| l.now).min().unwrap_or(0);
            let span_end = base.saturating_add(CHANNEL_SPAN).min(stop_at);
            if span_end <= base {
                return Ok(true);
            }
            // Records arriving within the span are admissible; the
            // pull-in gate additionally looks `τ_full` ahead.
            let fill_horizon = span_end.saturating_add(self.config.timing.tau_full);
            let mut any_pending = false;
            for c in 0..active {
                let paused =
                    self.run_channel_span(cursor, trace, c, end, span_end, fill_horizon, observer)?;
                if paused {
                    any_pending = true;
                } else {
                    // A drained lane (empty queue and buffer, no
                    // deadlines before `end`) makes no decision during
                    // the jump, so stepping its clock is free — and
                    // keeps `base` advancing every rotation.
                    let lane = &mut cursor.lanes[c];
                    lane.now = lane.now.max(span_end);
                }
            }
            let source_dry =
                trace.peek().is_none() && cursor.lanes.iter().all(|l| l.buffer.is_empty());
            if !any_pending && source_dry {
                return Ok(false);
            }
            if span_end >= stop_at {
                return Ok(true);
            }
        }
    }

    /// Pulls source records into per-channel buffers until lane `c`'s
    /// buffer is non-empty, the source head is at or past
    /// `fill_horizon`, or the source is dry. Records owned by channels
    /// outside this instance's range are dropped on their channel bits
    /// alone (shards consume unfiltered traces); every pulled record
    /// counts toward `cursor.pulled`.
    #[inline]
    fn fill<I: Iterator<Item = TraceRecord>>(
        &self,
        cursor: &mut SchedCursor,
        trace: &mut std::iter::Peekable<I>,
        c: usize,
        fill_horizon: u64,
    ) {
        if !cursor.lanes[c].buffer.is_empty() {
            return;
        }
        loop {
            match trace.peek() {
                Some(&record) if record.cycle < fill_horizon => {
                    trace.next();
                    cursor.pulled += 1;
                    let channel = self.config.channel_of_index(record.row);
                    let Some(lane) = channel
                        .checked_sub(self.first_channel)
                        .filter(|&l| l < self.active_channels)
                    else {
                        continue;
                    };
                    let (bank, row) = self.config.steer(record.row);
                    let lane = lane as usize;
                    cursor.lanes[lane]
                        .buffer
                        .push_back(Pending { record, bank, row });
                    if lane == c {
                        return;
                    }
                }
                _ => return,
            }
        }
    }

    /// Runs channel `c`'s scheduling loop until its clock reaches
    /// `span_end` (returning `true`) or its work before `end` is
    /// exhausted (returning `false`). Its single-call helpers are
    /// `#[inline(always)]`: left to the inliner, inlining them depended on
    /// the calling crate's codegen units, and served jobs ran ~15 % slower.
    #[allow(clippy::too_many_arguments)]
    fn run_channel_span<I, O>(
        &mut self,
        cursor: &mut SchedCursor,
        trace: &mut std::iter::Peekable<I>,
        c: usize,
        end: u64,
        span_end: u64,
        fill_horizon: u64,
        observer: &mut O,
    ) -> Result<bool, Error>
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let banks = self.channel_banks(c);
        loop {
            let now = clock_jump(&self.busy_until[banks.clone()], cursor.lanes[c].now);
            cursor.lanes[c].now = now;
            if now >= span_end {
                return Ok(true);
            }

            // Admit arrivals that have happened by `now`. Refilling at
            // the head of each pass (rather than before the admit and
            // once more after the loop) pulls the same records: `fill`
            // is a no-op while the lane's buffer holds its next arrival.
            loop {
                self.fill(cursor, trace, c, fill_horizon);
                let lane = &mut cursor.lanes[c];
                if lane.queue.len() >= self.config.queue_depth {
                    break;
                }
                match lane.buffer.front() {
                    Some(p) if p.record.cycle <= now => {
                        let pending = *p;
                        lane.buffer.pop_front();
                        lane.queue.push_back(pending);
                        lane.coasting = false;
                        self.queued[pending.bank as usize - self.bank_offset] += 1;
                    }
                    _ => break,
                }
            }
            let lane = &mut cursor.lanes[c];
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(lane.queue.len());
            // A full queue with an arrival already waiting is back
            // pressure; report each stalled cycle once.
            if lane.queue.len() == self.config.queue_depth
                && lane.buffer.front().is_some_and(|p| p.record.cycle <= now)
                && lane.last_stall != Some(now)
            {
                lane.last_stall = Some(now);
                self.stats.queue_stalls += 1;
                observer.on_queue_stall(now, lane.queue.len());
            }

            // Refreshes due by `now` on free banks (postponed onto
            // contended banks when parallelization allows).
            if self.try_refresh(c, now, end, observer)? {
                cursor.lanes[c].coasting = false;
                continue;
            }

            // FR-FCFS demand on free banks.
            if let Some(idx) = self.pick(&cursor.lanes[c].queue, now) {
                if idx != 0 {
                    self.stats.reordered += 1;
                }
                let lane = &mut cursor.lanes[c];
                let len = lane.queue.len();
                let pending = lane
                    .queue
                    .remove(idx)
                    .ok_or(Error::QueueIndexInvalid { index: idx, len })?;
                self.queued[pending.bank as usize - self.bank_offset] -= 1;
                cursor.lanes[c].coasting = false;
                self.service(c, pending, now, observer);
                continue;
            }

            // Idle banks pull upcoming refreshes in early — but never
            // from a coasting clock (see [`LaneCursor::coasting`]).
            let upcoming = cursor.lanes[c].buffer.front().map(|p| p.record.cycle);
            if !cursor.lanes[c].coasting && self.try_pull_in(c, now, end, upcoming, observer) {
                continue;
            }

            // Nothing issuable at `now`: advance to the next arrival (if
            // it can be admitted), refresh deadline, or bank release.
            let queue = &cursor.lanes[c].queue;
            let next_arrival = upcoming.filter(|_| queue.len() < self.config.queue_depth);
            match self.advance_target(c, now, end, next_arrival, !queue.is_empty()) {
                // A target past the span boundary is clamped to it: the
                // lane pauses there, and later rounds (with a longer
                // admission horizon) may discover an earlier arrival to
                // wake for instead. The clamped clock is synthetic —
                // mark the lane coasting until a genuine event.
                Some(t) if t > now => {
                    let lane = &mut cursor.lanes[c];
                    lane.coasting = t > span_end;
                    lane.now = t.min(span_end);
                }
                Some(_) => return Err(Error::SchedulerStalled { cycle: now }),
                None => return Ok(false),
            }
        }
    }

    /// The local bank range of channel `c`.
    fn channel_banks(&self, c: usize) -> std::ops::Range<usize> {
        let banks_per_channel = self.config.banks_per_channel() as usize;
        c * banks_per_channel..(c + 1) * banks_per_channel
    }

    /// The cycle channel `c` next has something to do, once nothing is
    /// issuable at `now`: the earliest of `next_arrival`, the release of
    /// a busy bank with queued demand, and a refresh due before `end`
    /// on its bank's release (a due refresh on a busy bank becomes
    /// issuable only when the bank frees, so its target is the later of
    /// the two). `None` when none remains: the lane is finished.
    ///
    /// One pass over the channel's banks at most, and in the common
    /// case none:
    /// - with no demand queued every `queued[b]` is 0, so the release
    ///   scan is skipped;
    /// - each refresh candidate is `max(due, busy) ≥ due ≥ due_bound[c]`,
    ///   so a bound at or past the best target so far cannot win and
    ///   the refresh scan is skipped. With no other candidate the scan
    ///   always runs: it decides between waking for a refresh and
    ///   finishing. A scan leaves the exact minimum in `due_bound[c]`.
    #[inline(always)]
    fn advance_target(
        &mut self,
        c: usize,
        now: u64,
        end: u64,
        next_arrival: Option<u64>,
        demand: bool,
    ) -> Option<u64> {
        let banks = self.channel_banks(c);
        let mut target = next_arrival;
        if demand {
            for b in banks.clone() {
                let busy = self.busy_until[b];
                if busy > now && self.queued[b] > 0 && target.is_none_or(|t| busy < t) {
                    target = Some(busy);
                }
            }
        }
        if target.is_none_or(|t| self.due_bound[c] < t) {
            let mut min_due = u64::MAX;
            for b in banks {
                let due = self.next_due[b];
                min_due = min_due.min(due);
                if due < end {
                    let at = due.max(self.busy_until[b]);
                    if target.is_none_or(|t| at < t) {
                        target = Some(at);
                    }
                }
            }
            self.due_bound[c] = min_due;
        }
        target
    }

    /// Finalizes the statistics after the last span (the tail of
    /// [`Scheduler::run_observed`]), delivering any deferred policy
    /// activations first (ascending global-row order).
    pub fn finish(&mut self, end: u64) -> SchedStats {
        let rows = self.config.rows_per_bank() as usize;
        for word in 0..self.touched.len() {
            while self.touched[word] != 0 {
                let bit = word * 64 + self.touched[word].trailing_zeros() as usize;
                self.touched[word] &= self.touched[word] - 1;
                let bank = (self.bank_offset + bit / rows) as u32;
                self.policy
                    .on_activate(self.config.global_row(bank, (bit % rows) as u32));
            }
        }
        self.stats.sim.total_cycles = end.max(self.busy_until.iter().copied().max().unwrap_or(0));
        self.stats.clone()
    }

    /// Appends the scheduler's full run-state — the bank arrays, every
    /// refresh wheel, the deferred-activation set, per-channel bus
    /// state, statistics, policy counters, and the scheduling cursor —
    /// to `enc`, where `P` supports state capture.
    pub fn save_state(&self, enc: &mut vrl_snap::Encoder, cursor: &SchedCursor)
    where
        P: vrl_dram_sim::policy::PolicyState,
    {
        use vrl_snap::Snapshot as _;
        self.open_row.save(enc);
        self.busy_until.save(enc);
        self.wheels.save(enc);
        self.touched.save(enc);
        self.buses.save(enc);
        self.stats.save(enc);
        self.policy.save_state(enc);
        cursor.save(enc);
    }

    /// Restores run-state captured by [`Scheduler::save_state`] into a
    /// freshly-constructed scheduler of the same configuration,
    /// returning the scheduling cursor to resume from. The cached
    /// wheel heads and per-bank queued counts are derived state,
    /// rebuilt here rather than loaded.
    ///
    /// # Errors
    ///
    /// Returns [`vrl_snap::SnapError`] on truncated input or a snapshot
    /// from a differently-shaped scheduler (bank, channel, or rank
    /// count).
    pub fn restore_state(
        &mut self,
        dec: &mut vrl_snap::Decoder<'_>,
    ) -> Result<SchedCursor, vrl_snap::SnapError>
    where
        P: vrl_dram_sim::policy::PolicyState,
    {
        use vrl_snap::Snapshot as _;
        let open_row = Vec::<u32>::load(dec)?;
        if open_row.len() != self.open_row.len() {
            return Err(vrl_snap::SnapError::Malformed {
                what: format!(
                    "scheduler has {} banks, snapshot has {}",
                    self.open_row.len(),
                    open_row.len()
                ),
            });
        }
        let busy_until = Vec::<u64>::load(dec)?;
        let wheels = Vec::<RefreshQueue>::load(dec)?;
        let touched = Vec::<u64>::load(dec)?;
        let buses = Vec::<ChannelBus>::load(dec)?;
        if busy_until.len() != self.busy_until.len()
            || wheels.len() != self.wheels.len()
            || touched.len() != self.touched.len()
            || buses.len() != self.buses.len()
            || buses
                .iter()
                .any(|b| b.ranks.len() != self.config.ranks() as usize)
        {
            return Err(vrl_snap::SnapError::Malformed {
                what: "snapshot from a differently-shaped scheduler".into(),
            });
        }
        self.open_row = open_row;
        self.busy_until = busy_until;
        self.wheels = wheels;
        self.touched = touched;
        self.buses = buses;
        self.stats = SchedStats::load(dec)?;
        self.policy.restore_state(dec)?;
        let cursor = SchedCursor::load(dec)?;
        if cursor.lanes.len() != self.active_channels as usize {
            return Err(vrl_snap::SnapError::Malformed {
                what: format!(
                    "cursor has {} channel lanes, scheduler drives {}",
                    cursor.lanes.len(),
                    self.active_channels
                ),
            });
        }
        for (b, wheel) in self.wheels.iter_mut().enumerate() {
            self.next_due[b] = wheel.next_due().unwrap_or(u64::MAX);
        }
        let banks_per_channel = self.config.banks_per_channel() as usize;
        for (c, chunk) in self.next_due.chunks(banks_per_channel).enumerate() {
            self.due_bound[c] = chunk.iter().copied().min().unwrap_or(u64::MAX);
        }
        self.queued.iter_mut().for_each(|q| *q = 0);
        for lane in &cursor.lanes {
            for p in &lane.queue {
                self.queued[p.bank as usize - self.bank_offset] += 1;
            }
        }
        Ok(cursor)
    }

    /// Issues at most one due refresh (due ≤ `now`, due < `end`) on a
    /// bank of channel `c` that is free at `now`. With parallelization
    /// on, a due refresh whose bank has queued demand is postponed
    /// while the elasticity window allows, and executes regardless once
    /// the window is exhausted (bounding staleness).
    #[inline(always)]
    fn try_refresh<O: SimObserver>(
        &mut self,
        c: usize,
        now: u64,
        end: u64,
        observer: &mut O,
    ) -> Result<bool, Error> {
        let horizon = now.saturating_add(1).min(end);
        // `due_bound[c] ≤ min(next_due)` over the channel, so a bound
        // at or past the horizon proves the election below would come
        // up empty — the common case, decided in O(1).
        if self.due_bound[c] >= horizon {
            return Ok(false);
        }
        loop {
            let mut best: Option<(u64, usize)> = None;
            let mut min_due = u64::MAX;
            for b in self.channel_banks(c) {
                let due = self.next_due[b];
                min_due = min_due.min(due);
                if self.busy_until[b] > now {
                    continue;
                }
                if due < horizon && best.is_none_or(|(d, _)| due < d) {
                    best = Some((due, b));
                }
            }
            self.due_bound[c] = min_due;
            let Some((_, bank)) = best else {
                return Ok(false);
            };
            let (due, row, original_due) = self.wheels[bank]
                .pop_due_before(horizon)
                .ok_or(Error::SchedulerStalled { cycle: now })?;
            let contended = self.queued[bank] > 0;
            if self.config.parallel_refresh && contended {
                let deadline = original_due.saturating_add(self.config.slack);
                if now < deadline {
                    // Retry in coarse steps (an eighth of the window) so
                    // a long-contended refresh re-arbitrates a bounded
                    // number of times, but never past the window's edge
                    // (the pop after that executes unconditionally).
                    let step = (self.config.slack / 8)
                        .max(self.config.timing.tau_full)
                        .max(1);
                    let retry = (now + step).min(deadline).max(now + 1);
                    self.wheels[bank].push(retry, row, original_due);
                    self.next_due[bank] = self.wheels[bank].next_due().unwrap_or(u64::MAX);
                    self.due_bound[c] = self.due_bound[c].min(self.next_due[bank]);
                    self.stats.sim.postponed_refreshes += 1;
                    let global = (self.bank_offset + bank) as u32;
                    observer.on_refresh_postponed(self.config.global_row(global, row), now);
                    continue;
                }
            }
            self.next_due[bank] = self.wheels[bank].next_due().unwrap_or(u64::MAX);
            self.execute_refresh(
                c,
                bank,
                now.max(due),
                row,
                original_due,
                contended,
                observer,
            );
            return Ok(true);
        }
    }

    /// With parallelization on, executes the next upcoming refresh of a
    /// free, demand-less bank of channel `c` up to `slack` cycles
    /// early. Early refreshes are always retention-safe; the next
    /// deadline still advances from the original one, so the schedule
    /// never drifts.
    ///
    /// Only fires when the next un-admitted arrival (if any) is at least
    /// a full refresh away: pulling in during a traffic burst's tail
    /// occupies the bank just as new demand lands, and the queueing
    /// backlog amplifies those few cycles into far more stall than the
    /// deferred refresh would ever have cost.
    #[inline(always)]
    fn try_pull_in<O: SimObserver>(
        &mut self,
        c: usize,
        now: u64,
        end: u64,
        next_arrival: Option<u64>,
        observer: &mut O,
    ) -> bool {
        if !self.config.parallel_refresh || self.config.slack == 0 {
            return false;
        }
        if next_arrival.is_some_and(|a| a < now + self.config.timing.tau_full) {
            return false;
        }
        let horizon = now
            .saturating_add(self.config.slack)
            .saturating_add(1)
            .min(end);
        // Same O(1) bail as the refresh election: nothing due within
        // the pull-in window anywhere on the channel.
        if self.due_bound[c] >= horizon {
            return false;
        }
        for bank in self.channel_banks(c) {
            if self.busy_until[bank] > now || self.queued[bank] > 0 {
                continue;
            }
            // The cached head deadline decides without settling the
            // wheel: the pop below succeeds exactly when it is within
            // the horizon.
            if self.next_due[bank] >= horizon {
                continue;
            }
            if let Some((_, row, original_due)) = self.wheels[bank].pop_due_before(horizon) {
                self.next_due[bank] = self.wheels[bank].next_due().unwrap_or(u64::MAX);
                self.stats.pulled_in_refreshes += 1;
                let global = (self.bank_offset + bank) as u32;
                observer.on_refresh_pull_in(self.config.global_row(global, row), now);
                self.execute_refresh(c, bank, now, row, original_due, false, observer);
                return true;
            }
        }
        false
    }

    /// FR-FCFS over requests whose bank is free at `now`: the oldest
    /// hitting its bank's open row, else the oldest — in one pass.
    #[inline(always)]
    fn pick(&self, queue: &VecDeque<Pending>, now: u64) -> Option<usize> {
        let mut oldest_free = None;
        for (idx, p) in queue.iter().enumerate() {
            let bank = p.bank as usize - self.bank_offset;
            if self.busy_until[bank] <= now {
                if self.open_row[bank] == p.row {
                    return Some(idx);
                }
                oldest_free.get_or_insert(idx);
            }
        }
        oldest_free
    }

    fn mark_touched(&mut self, local_bank: usize, row: u32) {
        let bit = local_bank * self.config.rows_per_bank() as usize + row as usize;
        self.touched[bit / 64] |= 1 << (bit % 64);
    }

    fn clear_touched(&mut self, local_bank: usize, row: u32) -> bool {
        let bit = local_bank * self.config.rows_per_bank() as usize + row as usize;
        let mask = 1u64 << (bit % 64);
        let was = self.touched[bit / 64] & mask != 0;
        self.touched[bit / 64] &= !mask;
        was
    }

    /// Executes one refresh on local `bank` (of channel `c`) issuing at
    /// (or just after) `issue_at`.
    #[allow(clippy::too_many_arguments)]
    fn execute_refresh<O: SimObserver>(
        &mut self,
        c: usize,
        bank: usize,
        issue_at: u64,
        row: u32,
        original_due: u64,
        contended: bool,
        observer: &mut O,
    ) {
        let timing = self.config.timing;
        let global_bank = (self.bank_offset + bank) as u32;
        let rank = self.config.rank_of_bank(global_bank) as usize;
        let mut start = issue_at.max(self.busy_until[bank]);
        // tRFC: refresh starts within one rank keep their distance. At
        // the paper's trfc = 0 this is a no-op (the command bus already
        // spaces same-cycle commands), preserving single-rank results.
        if let Some(last) = self.buses[c].ranks[rank].last_refresh {
            start = start.max(last + timing.trfc);
        }
        start = self.buses[c].claim_cmd(start);
        self.buses[c].ranks[rank].last_refresh = Some(start);
        let mut duration = 0;
        if self.open_row[bank] != NO_ROW {
            self.open_row[bank] = NO_ROW;
            duration += timing.trp;
        }
        let global = self.config.global_row(global_bank, row);
        // Deliver this row's deferred activation (if any) before the
        // policy reads its per-row counters.
        if self.effect == ActivationEffect::IdempotentReset && self.clear_touched(bank, row) {
            self.policy.on_activate(global);
        }
        let kind = self.policy.refresh_kind(global);
        let refresh_cycles = timing.refresh_cycles(kind);
        duration += refresh_cycles;
        debug_assert!(start >= self.busy_until[bank]);
        let done = start + duration;
        self.busy_until[bank] = done;
        self.stats.sim.refresh_busy_cycles += refresh_cycles;
        if contended {
            self.stats.refresh_blocked_cycles += refresh_cycles;
        }
        match kind {
            RefreshLatency::Full => self.stats.sim.full_refreshes += 1,
            RefreshLatency::Partial => self.stats.sim.partial_refreshes += 1,
        }
        self.stats.per_bank_refreshes[global_bank as usize] += 1;
        observer.on_refresh(global, kind, done);
        let period = timing.ms_to_cycles(self.policy.period_ms(global)).max(1);
        let next = original_due + period;
        self.wheels[bank].push(next, row, next);
        self.next_due[bank] = self.next_due[bank].min(next);
        self.due_bound[c] = self.due_bound[c].min(self.next_due[bank]);
    }

    /// Services one queued request on its (free) bank, honoring the
    /// inter-bank activate and data-bus constraints.
    #[inline(always)]
    fn service<O: SimObserver>(&mut self, c: usize, pending: Pending, now: u64, observer: &mut O) {
        let timing = self.config.timing;
        let bank = pending.bank as usize - self.bank_offset;
        let rank = self.config.rank_of_bank(pending.bank) as usize;
        let hit = self.open_row[bank] == pending.row;
        let latency = if hit {
            timing.hit_latency()
        } else if self.open_row[bank] != NO_ROW {
            timing.miss_latency()
        } else {
            timing.trcd + timing.tcl
        };
        let cas_offset = latency - timing.tcl;
        let is_write = pending.record.op == Op::Write;

        let mut start = now.max(self.busy_until[bank]);
        if !hit {
            start = self.buses[c].act_bound(start, rank, pending.bank, &timing);
        }
        start = self.buses[c].cas_bound(start, cas_offset, pending.bank, is_write, &timing);
        start = self.buses[c].claim_cmd(start);

        self.stats.sim.stall_cycles += start - pending.record.cycle;
        self.stats.sim.accesses += 1;
        self.stats.per_bank_accesses[pending.bank as usize] += 1;
        if hit {
            self.stats.sim.row_hits += 1;
        } else {
            self.stats.sim.row_misses += 1;
        }
        debug_assert!(start >= self.busy_until[bank]);
        let done = start + latency;
        self.busy_until[bank] = done;
        if !hit {
            self.open_row[bank] = pending.row;
            let global = self.config.global_row(pending.bank, pending.row);
            match self.effect {
                ActivationEffect::Immediate => self.policy.on_activate(global),
                ActivationEffect::IdempotentReset => self.mark_touched(bank, pending.row),
                ActivationEffect::Ignored => {}
            }
            observer.on_activate(global, start);
            self.buses[c].note_act(start, rank, pending.bank);
        }
        self.buses[c].note_cas(start + cas_offset, pending.bank, is_write);
        if pending.record.op == Op::Read {
            self.stats.read_latency.record(done - pending.record.cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrl_dram_sim::policy::AutoRefresh;

    fn sparse_trace(n: u64, stride: u64, rows: u32) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord::new(i * stride, Op::Read, (i % rows as u64) as u32))
            .collect()
    }

    #[test]
    fn zero_queue_depth_is_rejected() {
        let config = SchedConfig::with_geometry(2, 16)
            .expect("geometry")
            .with_queue_depth(0);
        let err = Scheduler::new(config, AutoRefresh::new(64.0)).expect_err("zero depth");
        assert!(matches!(err, Error::InvalidConfig { .. }));
    }

    #[test]
    fn out_of_range_channel_is_rejected() {
        let config = SchedConfig::with_dimm_geometry(2, 1, 4, 16).expect("geometry");
        let err = Scheduler::for_channel(config, AutoRefresh::new(64.0), 2).expect_err("channel");
        assert!(matches!(err, Error::InvalidConfig { .. }));
    }

    #[test]
    fn refresh_only_run_covers_every_row() {
        let config = SchedConfig::with_geometry(4, 32).expect("geometry");
        let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        let stats = sched.run(std::iter::empty(), 64.0).expect("run");
        assert_eq!(stats.sim.total_refreshes(), 4 * 32);
        assert_eq!(stats.sim.refresh_busy_cycles, 4 * 32 * 19);
        assert!(stats.per_bank_refreshes.iter().all(|&n| n == 32));
    }

    #[test]
    fn accesses_spread_across_banks() {
        let config = SchedConfig::with_geometry(4, 64).expect("geometry");
        let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        // Consecutive row indices stripe across the 4 banks.
        let stats = sched
            .run(sparse_trace(4000, 50, 4 * 64).into_iter(), 1.0)
            .expect("run");
        assert_eq!(stats.sim.accesses, 4000);
        for (b, &n) in stats.per_bank_accesses.iter().enumerate() {
            assert_eq!(n, 1000, "bank {b}: {n}");
        }
        assert_eq!(stats.read_latency.count(), 4000);
    }

    #[test]
    fn multi_bank_overlap_beats_a_single_bank() {
        // The same demand stream over 4 banks vs 1 bank (same total
        // rows): bank-level parallelism must cut aggregate stall time.
        let trace = |rows: u32| sparse_trace(20_000, 8, rows);
        let quad = SchedConfig::with_geometry(4, 64).expect("geometry");
        let mono = SchedConfig::with_geometry(1, 256).expect("geometry");
        let mut sched4 = Scheduler::new(quad, AutoRefresh::new(64.0)).expect("config");
        let mut sched1 = Scheduler::new(mono, AutoRefresh::new(64.0)).expect("config");
        let s4 = sched4.run(trace(256).into_iter(), 1.0).expect("run");
        let s1 = sched1.run(trace(256).into_iter(), 1.0).expect("run");
        assert_eq!(s4.sim.accesses, s1.sim.accesses);
        assert!(
            s4.sim.stall_cycles < s1.sim.stall_cycles / 2,
            "4 banks must overlap service: {} vs {}",
            s4.sim.stall_cycles,
            s1.sim.stall_cycles
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let config = SchedConfig::with_geometry(8, 32).expect("geometry");
        let run = || {
            let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
            sched
                .run(sparse_trace(10_000, 17, 256).into_iter(), 64.0)
                .expect("run")
        };
        assert_eq!(run(), run());
    }

    /// Bursts of back-to-back demand with idle gaps in between: the
    /// pattern refresh-access parallelization exists for. Refreshes due
    /// inside a burst defer to the gap (the window is much wider than a
    /// burst), so demand stops seeing them.
    fn bursty_trace(bursts: u64, burst_len: u64, gap: u64, rows: u32) -> Vec<TraceRecord> {
        let mut trace = Vec::with_capacity((bursts * burst_len) as usize);
        for b in 0..bursts {
            for i in 0..burst_len {
                let idx = (b * burst_len + i) % rows as u64;
                trace.push(TraceRecord::new(b * gap + i, Op::Read, idx as u32));
            }
        }
        trace
    }

    #[test]
    fn parallelization_postpones_contended_refreshes() {
        let config = SchedConfig::with_geometry(4, 1024).expect("geometry");
        let trace = bursty_trace(1280, 400, 50_000, 4096);
        let mut plain =
            Scheduler::new(config.with_parallelism(false), AutoRefresh::new(64.0)).expect("config");
        let mut dsarp =
            Scheduler::new(config.with_parallelism(true), AutoRefresh::new(64.0)).expect("config");
        let p = plain.run(trace.clone().into_iter(), 64.0).expect("run");
        let d = dsarp.run(trace.into_iter(), 64.0).expect("run");
        assert!(
            p.refresh_blocked_cycles > 0,
            "bursts must collide with refreshes at all"
        );
        assert!(d.sim.postponed_refreshes > 0);
        assert!(
            d.refresh_blocked_cycles < p.refresh_blocked_cycles / 4,
            "parallelization must hide refreshes from demand: {} vs {}",
            d.refresh_blocked_cycles,
            p.refresh_blocked_cycles
        );
        assert!(
            d.sim.stall_cycles <= p.sim.stall_cycles,
            "deferring refreshes must not slow demand: {} vs {}",
            d.sim.stall_cycles,
            p.sim.stall_cycles
        );
    }

    #[test]
    fn scheduler_snapshot_resume_is_bit_identical() {
        use vrl_dram_sim::policy::VrlAccess;
        use vrl_retention::binning::BinningTable;
        use vrl_retention::profile::BankProfile;

        let config = SchedConfig::with_geometry(4, 64)
            .expect("geometry")
            .with_parallelism(true);
        let rows = (4 * 64) as usize;
        let bins = BinningTable::from_profile(&BankProfile::from_rows(
            std::iter::repeat_n(300.0, rows),
            32,
        ));
        let mk =
            || Scheduler::new(config, VrlAccess::new(bins.clone(), vec![3; rows])).expect("config");
        let trace = bursty_trace(40, 100, 50_000, 256);
        let end = config.timing.ms_to_cycles(64.0);

        let mut whole = mk();
        let expected = whole.run(trace.clone().into_iter(), 64.0).expect("run");

        // Run to an arbitrary mid-run cycle, snapshot, and "crash".
        let mut first = mk();
        let mut cursor = SchedCursor::new();
        let mut records = trace
            .clone()
            .into_iter()
            .take_while(|r| r.cycle < end)
            .peekable();
        let paused = first
            .run_span_observed(&mut cursor, &mut records, end, end / 2, &mut NullObserver)
            .expect("span");
        assert!(paused, "pausing mid-run must leave work");
        let mut enc = vrl_snap::Encoder::new();
        first.save_state(&mut enc, &cursor);
        let bytes = enc.into_bytes();
        drop(first);

        // Resume into a fresh scheduler, skipping the pulled records.
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
    fn dimm_snapshot_resume_is_bit_identical() {
        let config = SchedConfig::with_dimm_geometry(2, 2, 4, 64)
            .expect("geometry")
            .with_parallelism(true);
        let mk = || Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        let trace = bursty_trace(40, 200, 50_000, 1024);
        let end = config.timing.ms_to_cycles(64.0);

        let mut whole = mk();
        let expected = whole.run(trace.clone().into_iter(), 64.0).expect("run");

        let mut first = mk();
        let mut cursor = SchedCursor::new();
        let mut records = trace
            .clone()
            .into_iter()
            .take_while(|r| r.cycle < end)
            .peekable();
        let paused = first
            .run_span_observed(&mut cursor, &mut records, end, end / 3, &mut NullObserver)
            .expect("span");
        assert!(paused, "pausing mid-run must leave work");
        let mut enc = vrl_snap::Encoder::new();
        first.save_state(&mut enc, &cursor);
        let bytes = enc.into_bytes();
        drop(first);

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
    fn sharded_channels_match_the_whole_dimm() {
        let config = SchedConfig::with_dimm_geometry(2, 2, 4, 32)
            .expect("geometry")
            .with_parallelism(true);
        let trace = bursty_trace(30, 150, 40_000, 512);

        let mut whole = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        let expected = whole.run(trace.clone().into_iter(), 64.0).expect("run");

        let mut merged: Option<SchedStats> = None;
        for channel in 0..config.channels() {
            let mut shard =
                Scheduler::for_channel(config, AutoRefresh::new(64.0), channel).expect("shard");
            let stats = shard.run(trace.clone().into_iter(), 64.0).expect("run");
            merged = Some(match merged {
                None => stats,
                Some(acc) => acc.merge(&stats),
            });
        }
        assert_eq!(merged.expect("channels"), expected);
    }

    /// Runs `trace` through the SoA scheduler and the reference engine
    /// (fresh policies each) and demands bit-identical statistics.
    fn matches_reference(
        config: SchedConfig,
        trace: &[TraceRecord],
        duration_ms: f64,
    ) -> SchedStats {
        use crate::reference::ReferenceScheduler;
        let soa = Scheduler::new(config, AutoRefresh::new(64.0))
            .expect("config")
            .run(trace.iter().copied(), duration_ms)
            .expect("soa run");
        let reference = ReferenceScheduler::new(config, AutoRefresh::new(64.0))
            .expect("config")
            .run(trace.iter().copied(), duration_ms)
            .expect("reference run");
        assert_eq!(soa, reference, "SoA diverged from the reference");
        soa
    }

    #[test]
    fn clock_jump_takes_the_minimum_only_when_every_bank_is_busy() {
        assert_eq!(clock_jump(&[9, 5, 7], 3), 5, "all busy: earliest release");
        assert_eq!(clock_jump(&[9, 2, 7], 3), 3, "one bank free: no jump");
        assert_eq!(
            clock_jump(&[9, 3, 7], 3),
            3,
            "a bank freeing at now is free"
        );
        assert_eq!(clock_jump(&[4], 3), 4);
    }

    #[test]
    fn every_bank_busy_at_the_clock_jump_matches_the_reference() {
        // Every bank receives a request in the same cycle, over and
        // over: after each wave all four banks are busy, so the clock
        // jumps to the earliest release.
        let config = SchedConfig::with_geometry(4, 64).expect("geometry");
        let trace: Vec<TraceRecord> = (0..2000u64)
            .flat_map(|wave| {
                (0..4u32).map(move |b| {
                    TraceRecord::new(wave * 40, Op::Read, (wave as u32 * 4 + b * 5) % 256)
                })
            })
            .collect();
        for parallel in [false, true] {
            let stats = matches_reference(config.with_parallelism(parallel), &trace, 1.0);
            assert_eq!(stats.sim.accesses, 8000);
        }
    }

    #[test]
    fn queued_demand_on_busy_banks_targets_a_release() {
        // Back-to-back misses to one bank queue up behind it while the
        // other banks idle: the advance target is that bank's release.
        let config = SchedConfig::with_geometry(4, 64).expect("geometry");
        let trace: Vec<TraceRecord> = (0..3000u64)
            .map(|i| TraceRecord::new(i * 3, Op::Read, (i as u32 * 4) % 256))
            .collect();
        for parallel in [false, true] {
            let stats = matches_reference(config.with_parallelism(parallel), &trace, 2.0);
            assert!(stats.max_queue_depth > 1, "demand must queue");
            assert_eq!(stats.per_bank_accesses, vec![3000, 0, 0, 0]);
        }

        // The same state set by hand: bank 1 holds queued demand and
        // frees at 80, before the next arrival and any refresh.
        let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        sched.busy_until = vec![120, 80, 0, 0];
        sched.queued = vec![1, 1, 0, 0];
        sched.next_due = vec![u64::MAX; 4];
        sched.due_bound = vec![u64::MAX];
        assert_eq!(sched.advance_target(0, 50, 1_000, Some(90), true), Some(80));
        assert_eq!(sched.advance_target(0, 50, 1_000, None, true), Some(80));
    }

    #[test]
    fn a_stale_due_bound_below_the_next_arrival_still_scans() {
        let config = SchedConfig::with_geometry(4, 64).expect("geometry");
        let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        sched.busy_until = vec![0; 4];
        sched.queued = vec![0; 4];
        sched.next_due = vec![900, 500, 2_000, u64::MAX];
        // Stale: the true minimum is 500, the bound still says 100.
        sched.due_bound = vec![100];
        assert_eq!(
            sched.advance_target(0, 50, 10_000, Some(700), false),
            Some(500)
        );
        assert_eq!(sched.due_bound[0], 500, "a scan leaves the exact minimum");
        // A bound at or past the best target cannot win; one cycle
        // below it, the refresh does.
        assert_eq!(
            sched.advance_target(0, 50, 10_000, Some(500), false),
            Some(500)
        );
        assert_eq!(
            sched.advance_target(0, 50, 10_000, Some(501), false),
            Some(500)
        );
        assert_eq!(
            sched.advance_target(0, 50, 10_000, Some(499), false),
            Some(499)
        );
        // A due refresh on a busy bank waits for the release.
        sched.busy_until = vec![0, 650, 0, 0];
        sched.due_bound = vec![100];
        assert_eq!(
            sched.advance_target(0, 50, 10_000, Some(700), false),
            Some(650)
        );

        // End to end: sparse arrivals spaced wider than a refresh let
        // idle banks pull refreshes in, which leaves the bound below
        // the next arrival until the next scan.
        let trace: Vec<TraceRecord> = (0..4000u64)
            .map(|i| TraceRecord::new(i * 4_000, Op::Read, (i as u32 * 7) % 256))
            .collect();
        let stats = matches_reference(config.with_parallelism(true), &trace, 16.0);
        assert!(
            stats.pulled_in_refreshes > 0,
            "the trace must pull refreshes in"
        );
    }

    #[test]
    fn refreshes_due_after_the_last_arrival_still_run() {
        // A handful of early records, then only refresh work until
        // `end`: with no arrival left, the refresh scan decides whether
        // the lane wakes or finishes.
        let config = SchedConfig::with_geometry(4, 32).expect("geometry");
        let trace: Vec<TraceRecord> = (0..16u64)
            .map(|i| TraceRecord::new(i * 10, Op::Write, i as u32))
            .collect();
        for parallel in [false, true] {
            let stats = matches_reference(config.with_parallelism(parallel), &trace, 64.0);
            assert_eq!(stats.sim.accesses, 16);
            assert_eq!(stats.sim.total_refreshes(), 4 * 32);
        }
        let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        sched.busy_until = vec![0; 4];
        sched.next_due = vec![u64::MAX, 3_000, u64::MAX, u64::MAX];
        sched.due_bound = vec![3_000];
        assert_eq!(
            sched.advance_target(0, 50, 10_000, None, false),
            Some(3_000)
        );
        assert_eq!(sched.advance_target(0, 50, 3_000, None, false), None);
    }

    #[test]
    fn a_dry_trace_with_nothing_before_end_finishes() {
        let config = SchedConfig::with_geometry(4, 32).expect("geometry");
        let trace = sparse_trace(100, 10, 128);
        for parallel in [false, true] {
            let stats = matches_reference(config.with_parallelism(parallel), &trace, 0.0);
            assert_eq!(stats.sim.events(), 0);
            let stats = matches_reference(config.with_parallelism(parallel), &[], 0.0);
            assert_eq!(stats.sim.events(), 0);
        }
    }

    #[test]
    fn a_whole_dimm_run_fills_every_lane() {
        // Channel 1 (odd indices) is loaded first, then channel 0, so
        // filling one lane buffers the other's records.
        let config = SchedConfig::with_dimm_geometry(2, 1, 4, 32).expect("geometry");
        let mut trace: Vec<TraceRecord> = (0..3000u64)
            .map(|i| TraceRecord::new(i * 5, Op::Read, (i as u32 * 2 + 1) % 256))
            .collect();
        trace.extend((0..3000u64).map(|i| {
            let op = if i % 2 == 0 { Op::Write } else { Op::Read };
            TraceRecord::new(20_000 + i * 5, op, (i as u32 * 2) % 256)
        }));
        trace.extend(
            sparse_trace(4000, 23, 256)
                .into_iter()
                .map(|r| TraceRecord::new(40_000 + r.cycle, r.op, r.row)),
        );
        for parallel in [false, true] {
            let stats = matches_reference(config.with_parallelism(parallel), &trace, 8.0);
            assert_eq!(stats.sim.accesses, 10_000);
        }
    }

    #[test]
    fn command_bus_issues_at_most_one_command_per_cycle() {
        struct Cmds {
            starts: Vec<u64>,
        }
        impl SimObserver for Cmds {
            fn on_refresh(&mut self, _row: u32, _k: RefreshLatency, _c: u64) {}
            fn on_activate(&mut self, _row: u32, cycle: u64) {
                self.starts.push(cycle);
            }
        }
        let config = SchedConfig::with_geometry(8, 32).expect("geometry");
        let mut sched = Scheduler::new(config, AutoRefresh::new(64.0)).expect("config");
        let mut obs = Cmds { starts: Vec::new() };
        // A burst of simultaneous arrivals across all banks.
        let trace: Vec<TraceRecord> = (0..64u64)
            .map(|i| TraceRecord::new(0, Op::Read, i as u32))
            .collect();
        sched
            .run_observed(trace.into_iter(), 1.0, &mut obs)
            .expect("run");
        let mut starts = obs.starts.clone();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), obs.starts.len(), "activate cycles collide");
    }
}
