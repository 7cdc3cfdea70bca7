//! The event-driven bank simulator.
//!
//! Accesses from the trace and per-row refresh deadlines are merged in
//! time order onto a single bank. Refreshes take priority (a due refresh
//! runs before a later-arriving access), accesses stall while the bank is
//! busy, and every event is reported to an optional observer (used by the
//! integrity checker).

use vrl_trace::TraceRecord;

use crate::bank::BankState;
use crate::fault::{FaultInjector, RefreshDisposition};
use crate::guard::Guard;
use crate::integrity::ChargePhysics;
use crate::policy::{AdaptivePolicy, DegradeAction, RefreshPolicy};
use crate::stats::SimStats;
use crate::timing::{RefreshLatency, TimingParams};
use crate::wheel::RefreshQueue;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Timing parameters.
    pub timing: TimingParams,
    /// Rows in the simulated bank.
    pub rows: u32,
    /// Maximum refresh postponement slack in cycles (0 disables it).
    ///
    /// DDR4-style demand-first refreshing: a due refresh that would
    /// collide with an imminent access yields and is re-queued, as long
    /// as it stays within this slack of its original deadline. The slack
    /// must be far below the retention guard (DDR4 allows ~62 µs against
    /// 64 ms retention); the integrity checker verifies this.
    pub postpone_slack: u64,
    /// Whether initial refresh deadlines are staggered across each row's
    /// period (distributed refresh, the default) or aligned so all rows
    /// come due together at period boundaries (JEDEC-style burst
    /// refresh). Burst refresh blocks the bank for long contiguous
    /// windows and inflates worst-case access stalls.
    pub staggered: bool,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep the row open after an access (exploits locality; conflicts
    /// pay an extra precharge).
    #[default]
    Open,
    /// Precharge immediately after every access (no hits, but no
    /// conflict precharge and refreshes never find an open row).
    Closed,
}

impl SimConfig {
    /// The paper's evaluation bank: 8192 rows at the default timings.
    pub fn paper_default() -> Self {
        SimConfig {
            timing: TimingParams::paper_default(),
            rows: 8192,
            postpone_slack: 0,
            staggered: true,
            page_policy: PagePolicy::Open,
        }
    }

    /// A configuration with a custom row count.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn with_rows(rows: u32) -> Self {
        assert!(rows > 0, "bank must have rows");
        SimConfig {
            rows,
            ..Self::paper_default()
        }
    }

    /// Enables demand-first refresh postponement with the given slack.
    #[must_use]
    pub fn with_postpone_slack(mut self, slack_cycles: u64) -> Self {
        self.postpone_slack = slack_cycles;
        self
    }

    /// Switches to JEDEC-style burst refresh (all rows due together).
    #[must_use]
    pub fn with_burst_refresh(mut self) -> Self {
        self.staggered = false;
        self
    }

    /// Selects the row-buffer management policy.
    #[must_use]
    pub fn with_page_policy(mut self, policy: PagePolicy) -> Self {
        self.page_policy = policy;
        self
    }
}

/// Observer of simulation events (integrity checking, logging,
/// structured tracing).
///
/// The two sensing hooks (`on_refresh`, `on_activate`) are required —
/// the integrity machinery cannot work without them. Everything else
/// defaults to a no-op so existing observers keep compiling and the
/// default path ([`NullObserver`]) stays zero-cost: every hook is
/// statically dispatched and empty, so observed-off runs are
/// bit-identical to pre-observer builds (asserted in
/// `tests/observability.rs`).
pub trait SimObserver {
    /// A refresh of `row` with the given latency class completed at
    /// `cycle`.
    fn on_refresh(&mut self, row: u32, kind: RefreshLatency, cycle: u64);
    /// An activation of `row` (row-miss access) happened at `cycle`.
    fn on_activate(&mut self, row: u32, cycle: u64);
    /// The ground-truth retention of `row` changed to `retention_ms` at
    /// `cycle` (a VRT toggle or temperature step reported by a
    /// [`FaultInjector`]). Defaults to a no-op.
    fn on_retention_change(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        let _ = (row, retention_ms, cycle);
    }
    /// A due refresh of `row` yielded to imminent demand at `cycle` and
    /// was re-queued within its slack window. Defaults to a no-op.
    fn on_refresh_postponed(&mut self, row: u32, cycle: u64) {
        let _ = (row, cycle);
    }
    /// An upcoming refresh of `row` was executed early on an idle bank
    /// at `cycle` (scheduler pull-in). Defaults to a no-op.
    fn on_refresh_pull_in(&mut self, row: u32, cycle: u64) {
        let _ = (row, cycle);
    }
    /// The guard's background scrub read of `row` completed at `cycle`.
    /// Defaults to a no-op.
    fn on_scrub(&mut self, row: u32, cycle: u64) {
        let _ = (row, cycle);
    }
    /// A detected error applied one step of the degradation ladder to
    /// `row` at `cycle`; `action` is what the step changed. Defaults to
    /// a no-op.
    fn on_degrade(&mut self, row: u32, action: DegradeAction, cycle: u64) {
        let _ = (row, action, cycle);
    }
    /// A fault injector perturbed the refresh command of `row` at
    /// `cycle`: dropped it entirely (`dropped`) or delayed it. Defaults
    /// to a no-op.
    fn on_refresh_fault(&mut self, row: u32, dropped: bool, cycle: u64) {
        let _ = (row, dropped, cycle);
    }
    /// The request queue was full at `cycle` while an arrival was
    /// waiting (`depth` is the queue occupancy). Defaults to a no-op.
    fn on_queue_stall(&mut self, cycle: u64, depth: usize) {
        let _ = (cycle, depth);
    }
}

/// Forwards every event to two observers — how
/// [`Simulator::run_guarded_observed`] lets an external trace recorder
/// see the same stream the guard senses.
#[derive(Debug)]
pub struct Fanout<'a, A: SimObserver, B: SimObserver> {
    first: &'a mut A,
    second: &'a mut B,
}

impl<'a, A: SimObserver, B: SimObserver> Fanout<'a, A, B> {
    /// Pairs two observers.
    pub fn new(first: &'a mut A, second: &'a mut B) -> Self {
        Fanout { first, second }
    }
}

impl<A: SimObserver, B: SimObserver> SimObserver for Fanout<'_, A, B> {
    fn on_refresh(&mut self, row: u32, kind: RefreshLatency, cycle: u64) {
        self.first.on_refresh(row, kind, cycle);
        self.second.on_refresh(row, kind, cycle);
    }
    fn on_activate(&mut self, row: u32, cycle: u64) {
        self.first.on_activate(row, cycle);
        self.second.on_activate(row, cycle);
    }
    fn on_retention_change(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        self.first.on_retention_change(row, retention_ms, cycle);
        self.second.on_retention_change(row, retention_ms, cycle);
    }
    fn on_refresh_postponed(&mut self, row: u32, cycle: u64) {
        self.first.on_refresh_postponed(row, cycle);
        self.second.on_refresh_postponed(row, cycle);
    }
    fn on_refresh_pull_in(&mut self, row: u32, cycle: u64) {
        self.first.on_refresh_pull_in(row, cycle);
        self.second.on_refresh_pull_in(row, cycle);
    }
    fn on_scrub(&mut self, row: u32, cycle: u64) {
        self.first.on_scrub(row, cycle);
        self.second.on_scrub(row, cycle);
    }
    fn on_degrade(&mut self, row: u32, action: DegradeAction, cycle: u64) {
        self.first.on_degrade(row, action, cycle);
        self.second.on_degrade(row, action, cycle);
    }
    fn on_refresh_fault(&mut self, row: u32, dropped: bool, cycle: u64) {
        self.first.on_refresh_fault(row, dropped, cycle);
        self.second.on_refresh_fault(row, dropped, cycle);
    }
    fn on_queue_stall(&mut self, cycle: u64, depth: usize) {
        self.first.on_queue_stall(cycle, depth);
        self.second.on_queue_stall(cycle, depth);
    }
}

/// A no-op observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    fn on_refresh(&mut self, _row: u32, _kind: RefreshLatency, _cycle: u64) {}
    fn on_activate(&mut self, _row: u32, _cycle: u64) {}
}

/// The event-driven single-bank simulator.
///
/// # Example
///
/// ```
/// use vrl_dram_sim::policy::AutoRefresh;
/// use vrl_dram_sim::sim::{SimConfig, Simulator};
///
/// let mut sim = Simulator::new(SimConfig::with_rows(64), AutoRefresh::new(64.0));
/// let stats = sim.run(std::iter::empty(), 64.0);
/// // Every row refreshed exactly once per 64 ms at τ_full = 19 cycles.
/// assert_eq!(stats.refresh_busy_cycles, 64 * 19);
/// ```
#[derive(Debug)]
pub struct Simulator<P: RefreshPolicy> {
    config: SimConfig,
    policy: P,
    bank: BankState,
    /// Timing-wheel of (due_cycle, row, original_due_cycle) deadlines.
    refresh_queue: RefreshQueue,
    stats: SimStats,
    /// Optional fault injector perturbing ground truth and refresh
    /// command delivery.
    injector: Option<FaultInjector>,
}

impl<P: RefreshPolicy> Simulator<P> {
    /// Creates a simulator; initial refresh deadlines are staggered
    /// across each row's period (as a real controller's tREFI pacing
    /// does), deterministically by row index.
    pub fn new(config: SimConfig, policy: P) -> Self {
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
        Simulator {
            config,
            policy,
            bank: BankState::new(),
            refresh_queue,
            stats: SimStats::default(),
            injector: None,
        }
    }

    /// The policy, for inspection.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Installs a fault injector: retention faults stream to the run's
    /// observer via [`SimObserver::on_retention_change`], and overflow
    /// faults drop or delay refresh commands.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Runs the trace for `duration_ms`, returning the statistics.
    pub fn run<I: Iterator<Item = TraceRecord>>(&mut self, trace: I, duration_ms: f64) -> SimStats {
        self.run_observed(trace, duration_ms, &mut NullObserver)
    }

    /// Runs with an observer receiving every refresh/activate event.
    pub fn run_observed<I, O>(&mut self, trace: I, duration_ms: f64, observer: &mut O) -> SimStats
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let end = self.config.timing.ms_to_cycles(duration_ms);
        let mut trace = trace.peekable();
        self.run_span_observed(&mut trace, end, observer);
        self.finish_observed(end, observer)
    }

    /// Services every trace record with `cycle < span_end`, then pauses
    /// without finalizing — the checkpointing building block. Span
    /// boundaries only decide where consumption pauses; the sequence of
    /// simulated operations is identical to an unsegmented run, so
    /// composing spans (with [`Simulator::finish_observed`] at the end)
    /// is bit-identical to [`Simulator::run_observed`] by construction.
    ///
    /// Returns the number of records consumed (what a resumed run must
    /// skip when regenerating a deterministic trace).
    pub fn run_span_observed<I, O>(
        &mut self,
        trace: &mut std::iter::Peekable<I>,
        span_end: u64,
        observer: &mut O,
    ) -> u64
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let mut consumed = 0;
        while let Some(&record) = trace.peek() {
            if record.cycle >= span_end {
                break;
            }
            trace.next();
            consumed += 1;
            self.drain_refreshes(record.cycle, Some(record.cycle), observer);
            self.poll_faults(record.cycle, observer);
            self.service_access(record, observer);
        }
        consumed
    }

    /// Drains the remaining refresh work up to `end` and finalizes the
    /// statistics (the tail of [`Simulator::run_observed`]).
    pub fn finish_observed<O: SimObserver>(&mut self, end: u64, observer: &mut O) -> SimStats {
        self.drain_refreshes(end, None, observer);
        self.poll_faults(end, observer);
        self.stats.total_cycles = end.max(self.bank.busy_until());
        self.stats.clone()
    }

    /// Advances the fault injector's stochastic processes to `cycle`,
    /// forwarding every retention change to the observer.
    fn poll_faults<O: SimObserver>(&mut self, cycle: u64, observer: &mut O) {
        if let Some(inj) = self.injector.as_mut() {
            for (row, retention_ms, at) in inj.poll(cycle) {
                observer.on_retention_change(row, retention_ms, at);
            }
        }
    }

    /// Executes all refreshes due strictly before `horizon`; with
    /// postponement enabled, refreshes that would collide with the next
    /// access at `next_access` yield while slack remains.
    fn drain_refreshes<O: SimObserver>(
        &mut self,
        horizon: u64,
        next_access: Option<u64>,
        observer: &mut O,
    ) {
        while let Some((due, row, original_due)) = self.refresh_queue.pop_due_before(horizon) {
            // Stochastic fault processes advance to the command's issue
            // time, and overflow faults may drop or delay the command.
            self.poll_faults(due, observer);
            if let Some(inj) = self.injector.as_mut() {
                match inj.refresh_disposition(row, due) {
                    RefreshDisposition::Execute => {}
                    RefreshDisposition::Delay(by) => {
                        self.stats.delayed_refreshes += 1;
                        observer.on_refresh_fault(row, false, due);
                        self.refresh_queue.push(due + by.max(1), row, original_due);
                        continue;
                    }
                    RefreshDisposition::Drop => {
                        self.stats.dropped_refreshes += 1;
                        observer.on_refresh_fault(row, true, due);
                        // The row simply waits for its next deadline.
                        let period = self.config.timing.ms_to_cycles(self.policy.period_ms(row));
                        let next = original_due + period.max(1);
                        self.refresh_queue.push(next, row, next);
                        continue;
                    }
                }
            }
            let start = self.bank.ready_at(due);
            // Demand-first postponement: if executing now would push into
            // the imminent access and the deadline slack allows, yield.
            if self.config.postpone_slack > 0 {
                if let Some(access_at) = next_access {
                    let worst_duration = self.config.timing.trp + self.config.timing.tau_full;
                    let would_collide = start + worst_duration > access_at;
                    let deferred_due = access_at + 1;
                    let within_slack = deferred_due <= original_due + self.config.postpone_slack;
                    if would_collide && within_slack && deferred_due > due {
                        self.stats.postponed_refreshes += 1;
                        observer.on_refresh_postponed(row, due);
                        self.refresh_queue.push(deferred_due, row, original_due);
                        continue;
                    }
                }
            }
            // A refresh needs a precharged bank; closing an open row costs
            // tRP of bank occupancy, but only the refresh cycle time
            // itself counts as refresh-busy (the paper's Figure 4 metric
            // is tRFC cycles).
            let mut duration = 0;
            if self.bank.open_row().is_some() {
                self.bank.precharge();
                duration += self.config.timing.trp;
            }
            let kind = self.policy.refresh_kind(row);
            let refresh_cycles = self.config.timing.refresh_cycles(kind);
            duration += refresh_cycles;
            let done = self.bank.occupy(start, duration);
            self.stats.refresh_busy_cycles += refresh_cycles;
            match kind {
                RefreshLatency::Full => self.stats.full_refreshes += 1,
                RefreshLatency::Partial => self.stats.partial_refreshes += 1,
            }
            observer.on_refresh(row, kind, done);
            // The next deadline advances from the *original* deadline so
            // postponement never drifts the schedule.
            let period = self.config.timing.ms_to_cycles(self.policy.period_ms(row));
            let next = original_due + period.max(1);
            self.refresh_queue.push(next, row, next);
        }
    }

    /// Services one trace access (one call site per instantiation, in a
    /// hot loop: forced inline, as in the scheduler's loop).
    #[inline(always)]
    fn service_access<O: SimObserver>(&mut self, record: TraceRecord, observer: &mut O) {
        let row = record.row % self.config.rows;
        let start = self.bank.ready_at(record.cycle);
        self.stats.stall_cycles += start - record.cycle;
        self.stats.accesses += 1;
        let hit = self.bank.open_row() == Some(row);
        let latency = if hit {
            self.stats.row_hits += 1;
            self.config.timing.hit_latency()
        } else {
            self.stats.row_misses += 1;
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
        if self.config.page_policy == PagePolicy::Closed {
            // Auto-precharge: the row closes with the access (tRP is
            // folded into the next operation's activate path).
            self.bank.precharge();
        }
    }
}

impl<P: RefreshPolicy + crate::policy::PolicyState> Simulator<P> {
    /// Appends the simulator's full run-state — bank FSM, refresh
    /// timing-wheel, statistics, policy counters, and fault-injector
    /// streams — to `enc`. Restoring into a freshly-constructed
    /// simulator of the same configuration resumes the run
    /// bit-identically (guard state is *not* included; guarded runs
    /// resume at the experiment-matrix level).
    pub fn save_state(&self, enc: &mut vrl_snap::Encoder) {
        use vrl_snap::Snapshot as _;
        self.bank.save(enc);
        self.refresh_queue.save(enc);
        self.stats.save(enc);
        self.policy.save_state(enc);
        match &self.injector {
            Some(inj) => {
                enc.put_bool(true);
                inj.save_state(enc);
            }
            None => enc.put_bool(false),
        }
    }

    /// Restores run-state captured by [`Simulator::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`vrl_snap::SnapError`] on truncated input or a snapshot
    /// taken from a differently-shaped simulator (row count, fault
    /// injector presence).
    pub fn restore_state(
        &mut self,
        dec: &mut vrl_snap::Decoder<'_>,
    ) -> Result<(), vrl_snap::SnapError> {
        use vrl_snap::Snapshot as _;
        self.bank = BankState::load(dec)?;
        self.refresh_queue = RefreshQueue::load(dec)?;
        self.stats = SimStats::load(dec)?;
        self.policy.restore_state(dec)?;
        let has_injector = dec.take_bool()?;
        match (self.injector.as_mut(), has_injector) {
            (Some(inj), true) => inj.restore_state(dec)?,
            (None, false) => {}
            (have, _) => {
                return Err(vrl_snap::SnapError::Malformed {
                    what: format!(
                        "snapshot {} a fault injector, simulator {}",
                        if has_injector { "has" } else { "lacks" },
                        if have.is_some() {
                            "has one"
                        } else {
                            "lacks one"
                        },
                    ),
                })
            }
        }
        Ok(())
    }
}

impl<P: AdaptivePolicy> Simulator<P> {
    /// Runs the trace under a runtime integrity [`Guard`]: the guard
    /// senses every refresh and activation, its background scrub reads
    /// are interleaved with (and occupy) the bank, and every error it
    /// detects immediately applies one step of the policy's degradation
    /// ladder. The guard's error counters are mirrored into the returned
    /// [`SimStats`].
    ///
    /// Combine with [`Simulator::set_fault_injector`] to measure how the
    /// guard contains injected profile faults.
    pub fn run_guarded<I, C>(
        &mut self,
        trace: I,
        duration_ms: f64,
        guard: &mut Guard<C>,
    ) -> SimStats
    where
        I: Iterator<Item = TraceRecord>,
        C: ChargePhysics,
    {
        self.run_guarded_observed(trace, duration_ms, guard, &mut NullObserver)
    }

    /// [`Simulator::run_guarded`] with an additional external observer:
    /// the guard keeps sensing every event, and the observer receives
    /// the same refresh/activate stream plus the guard-specific events
    /// ([`SimObserver::on_scrub`], [`SimObserver::on_degrade`]) the
    /// guard's counters would otherwise swallow.
    pub fn run_guarded_observed<I, C, O>(
        &mut self,
        trace: I,
        duration_ms: f64,
        guard: &mut Guard<C>,
        observer: &mut O,
    ) -> SimStats
    where
        I: Iterator<Item = TraceRecord>,
        C: ChargePhysics,
        O: SimObserver,
    {
        let end = self.config.timing.ms_to_cycles(duration_ms);
        let mut trace = trace.take_while(|r| r.cycle < end).peekable();
        loop {
            let scrub_at = guard.next_scrub_cycle();
            match trace.peek().copied() {
                Some(record) if record.cycle < scrub_at || scrub_at >= end => {
                    trace.next();
                    self.drain_refreshes_guarded(record.cycle, Some(record.cycle), guard, observer);
                    self.poll_faults(record.cycle, &mut Fanout::new(guard, observer));
                    self.service_access(record, &mut Fanout::new(guard, observer));
                }
                _ if scrub_at < end => {
                    let next = trace.peek().map(|r| r.cycle);
                    self.drain_refreshes_guarded(scrub_at, next, guard, observer);
                    self.poll_faults(scrub_at, &mut Fanout::new(guard, observer));
                    self.execute_scrub(scrub_at, guard, observer);
                }
                _ => {
                    self.drain_refreshes_guarded(end, None, guard, observer);
                    self.poll_faults(end, &mut Fanout::new(guard, observer));
                    self.apply_degrades(guard, end, observer);
                    break;
                }
            }
            // Degradation applies between events. An MPRSF demotion takes
            // effect at the row's very next refresh (the kind is chosen at
            // issue time), but a bin demotion only shortens the period
            // *after* the already-queued deadline fires — like a real
            // controller that cannot recall an enqueued REF — so a row may
            // take one extra ladder step before the shorter period holds.
            let at = self.bank.busy_until();
            self.apply_degrades(guard, at, observer);
        }
        self.stats.total_cycles = end.max(self.bank.busy_until());
        let gs = guard.stats();
        self.stats.corrected_errors = gs.corrected;
        self.stats.uncorrected_errors = gs.uncorrected;
        self.stats.clone()
    }

    /// Drains due refreshes like [`Simulator::drain_refreshes`], but
    /// applies the guard's queued degradations after every cluster of
    /// simultaneously-due commands — on an idle bank the whole horizon
    /// is one drain, and a corrected row must not keep its optimistic
    /// configuration for the remaining refreshes.
    fn drain_refreshes_guarded<C: ChargePhysics, O: SimObserver>(
        &mut self,
        horizon: u64,
        next_access: Option<u64>,
        guard: &mut Guard<C>,
        observer: &mut O,
    ) {
        while let Some(due) = self.refresh_queue.next_due() {
            if due >= horizon {
                break;
            }
            let cluster_end = (due + 1).min(horizon);
            self.drain_refreshes(cluster_end, next_access, &mut Fanout::new(guard, observer));
            self.apply_degrades(guard, cluster_end, observer);
        }
    }

    /// Issues the guard's scheduled scrub read: a closed-page access
    /// (activate, read, precharge) whose occupancy and count go to the
    /// dedicated scrub counters.
    fn execute_scrub<C: ChargePhysics, O: SimObserver>(
        &mut self,
        at: u64,
        guard: &mut Guard<C>,
        observer: &mut O,
    ) {
        let start = self.bank.ready_at(at);
        let mut duration = 0;
        if self.bank.open_row().is_some() {
            self.bank.precharge();
            duration += self.config.timing.trp;
        }
        duration += self.config.timing.trcd + self.config.timing.tcl + self.config.timing.trp;
        let done = self.bank.occupy(start, duration);
        self.stats.scrub_accesses += 1;
        self.stats.scrub_busy_cycles += duration;
        let row = guard.scrub_next(done);
        observer.on_scrub(row, done);
        // The scrub read fully restores the row; the policy learns about
        // it like any other activation.
        self.policy.on_activate(row);
    }

    /// Applies one ladder step per detected error, reporting each
    /// outcome back to the guard's counters and to the observer.
    fn apply_degrades<C: ChargePhysics, O: SimObserver>(
        &mut self,
        guard: &mut Guard<C>,
        cycle: u64,
        observer: &mut O,
    ) {
        for row in guard.take_pending_degrades() {
            let action = self.policy.degrade(row);
            guard.record_degrade(action);
            observer.on_degrade(row, action, cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AutoRefresh, Raidr, Vrl, VrlAccess};
    use vrl_retention::binning::BinningTable;
    use vrl_retention::profile::BankProfile;
    use vrl_trace::{Op, TraceRecord};

    fn small_config(rows: u32) -> SimConfig {
        SimConfig::with_rows(rows)
    }

    fn bins_all(retention_ms: f64, rows: usize) -> BinningTable {
        BinningTable::from_profile(&BankProfile::from_rows(
            std::iter::repeat_n(retention_ms, rows),
            32,
        ))
    }

    #[test]
    fn auto_refresh_cycle_count_matches_formula() {
        // 64 rows, 64 ms period, 10 ms run: each row refreshes
        // floor-ish(10/64 · …) times; total = rows × refreshes × 19.
        let mut sim = Simulator::new(small_config(64), AutoRefresh::new(64.0));
        let stats = sim.run(std::iter::empty(), 64.0);
        // Every row refreshed exactly once per 64 ms window.
        assert_eq!(stats.total_refreshes(), 64);
        assert_eq!(stats.refresh_busy_cycles, 64 * 19);
    }

    #[test]
    fn raidr_refreshes_strong_rows_less() {
        let strong = bins_all(300.0, 64); // 256 ms bin
        let weak = bins_all(100.0, 64); // 64 ms bin
        let mut sim_s = Simulator::new(small_config(64), Raidr::new(strong));
        let mut sim_w = Simulator::new(small_config(64), Raidr::new(weak));
        let s = sim_s.run(std::iter::empty(), 256.0);
        let w = sim_w.run(std::iter::empty(), 256.0);
        assert_eq!(s.total_refreshes(), 64);
        assert_eq!(w.total_refreshes(), 64 * 4);
    }

    #[test]
    fn vrl_reduces_refresh_busy_cycles_vs_raidr() {
        let bins = bins_all(300.0, 64);
        let mut raidr = Simulator::new(small_config(64), Raidr::new(bins.clone()));
        let mut vrl = Simulator::new(small_config(64), Vrl::new(bins, vec![3; 64]));
        let r = raidr.run(std::iter::empty(), 1024.0);
        let v = vrl.run(std::iter::empty(), 1024.0);
        assert_eq!(r.total_refreshes(), v.total_refreshes());
        assert!(v.refresh_busy_cycles < r.refresh_busy_cycles);
        // mprsf = 3 ⇒ 3 of 4 refreshes are partial.
        assert_eq!(v.partial_refreshes, 3 * v.full_refreshes);
    }

    #[test]
    fn accesses_are_serviced_and_stalls_counted() {
        let trace = vec![
            TraceRecord::new(100, Op::Read, 1),
            TraceRecord::new(101, Op::Read, 1), // same row: hit, stalls
            TraceRecord::new(500, Op::Write, 2),
        ];
        let mut sim = Simulator::new(small_config(8), AutoRefresh::new(64.0));
        let stats = sim.run(trace.into_iter(), 1.0);
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.row_hits, 1);
        assert_eq!(stats.row_misses, 2);
        assert!(stats.stall_cycles > 0);
    }

    #[test]
    fn vrl_access_emits_fewer_fulls_under_traffic() {
        let bins = bins_all(300.0, 16);
        let mprsf = vec![2u8; 16];
        // Heavy traffic touching every row repeatedly across the whole
        // 2048 ms run (2.048e9 cycles).
        let trace: Vec<TraceRecord> = (0..20_000u64)
            .map(|i| TraceRecord::new(i * 100_000, Op::Read, (i % 16) as u32))
            .collect();
        let mut vrl = Simulator::new(small_config(16), Vrl::new(bins.clone(), mprsf.clone()));
        let mut vrla = Simulator::new(small_config(16), VrlAccess::new(bins, mprsf));
        let v = vrl.run(trace.clone().into_iter(), 2048.0);
        let va = vrla.run(trace.into_iter(), 2048.0);
        assert!(
            va.full_refreshes < v.full_refreshes,
            "access resets must avoid full refreshes: {} vs {}",
            va.full_refreshes,
            v.full_refreshes
        );
        assert!(va.refresh_busy_cycles < v.refresh_busy_cycles);
    }

    #[test]
    fn refresh_periods_are_respected_per_row() {
        // One weak row among strong ones.
        let mut retentions = vec![300.0; 8];
        retentions[3] = 80.0;
        let bins = BinningTable::from_profile(&BankProfile::from_rows(retentions, 32));
        struct Counter {
            per_row: Vec<u64>,
        }
        impl SimObserver for Counter {
            fn on_refresh(&mut self, row: u32, _k: RefreshLatency, _c: u64) {
                self.per_row[row as usize] += 1;
            }
            fn on_activate(&mut self, _row: u32, _c: u64) {}
        }
        let mut obs = Counter {
            per_row: vec![0; 8],
        };
        let mut sim = Simulator::new(small_config(8), Raidr::new(bins));
        sim.run_observed(std::iter::empty(), 512.0, &mut obs);
        assert_eq!(obs.per_row[3], 8, "64 ms row refreshes 8× in 512 ms");
        assert_eq!(obs.per_row[0], 2, "256 ms row refreshes 2×");
    }

    #[test]
    fn postponement_reduces_stalls_without_changing_refresh_work() {
        // A dense periodic access stream over a many-row bank: plenty of
        // refreshes land right in front of an access.
        let trace: Vec<TraceRecord> = (0..100_000u64)
            .map(|i| TraceRecord::new(i * 160, Op::Read, (i % 1024) as u32))
            .collect();
        let base = small_config(1024);
        let slack = base.with_postpone_slack(64_000); // 64 µs, DDR4-like
        let mut plain = Simulator::new(base, AutoRefresh::new(64.0));
        let mut demand_first = Simulator::new(slack, AutoRefresh::new(64.0));
        let p = plain.run(trace.clone().into_iter(), 64.0);
        let d = demand_first.run(trace.into_iter(), 64.0);
        assert_eq!(
            p.total_refreshes(),
            d.total_refreshes(),
            "same refresh work"
        );
        assert!(d.postponed_refreshes > 0, "some refreshes must yield");
        assert!(
            d.stall_cycles < p.stall_cycles,
            "postponement must cut stalls: {} vs {}",
            d.stall_cycles,
            p.stall_cycles
        );
    }

    #[test]
    fn successive_runs_continue_the_schedule() {
        // Running 64 ms twice equals running 128 ms once: the refresh
        // queue and statistics persist across calls.
        let mut split = Simulator::new(small_config(32), AutoRefresh::new(64.0));
        split.run(std::iter::empty(), 64.0);
        let split_stats = split.run(std::iter::empty(), 128.0);
        let mut whole = Simulator::new(small_config(32), AutoRefresh::new(64.0));
        let whole_stats = whole.run(std::iter::empty(), 128.0);
        assert_eq!(split_stats.total_refreshes(), whole_stats.total_refreshes());
        assert_eq!(
            split_stats.refresh_busy_cycles,
            whole_stats.refresh_busy_cycles
        );
    }

    #[test]
    fn policy_accessor_exposes_counters() {
        let bins = bins_all(300.0, 4);
        let mut sim = Simulator::new(small_config(4), Vrl::new(bins, vec![2; 4]));
        sim.run(std::iter::empty(), 300.0);
        // Every row has refreshed at least once (staggered starts mean
        // some rows fit a second refresh into 300 ms), so all counters
        // have advanced but none wrapped past mprsf = 2.
        for row in 0..4 {
            let rcount = sim.policy().rcount(row);
            assert!((1..=2).contains(&rcount), "row {row}: rcount = {rcount}");
        }
    }

    #[test]
    fn closed_page_policy_never_hits() {
        let trace: Vec<TraceRecord> = (0..1000u64)
            .map(|i| TraceRecord::new(i * 100, Op::Read, 3)) // same row!
            .collect();
        let open = small_config(8);
        let closed = open.with_page_policy(PagePolicy::Closed);
        let mut sim_open = Simulator::new(open, AutoRefresh::new(64.0));
        let mut sim_closed = Simulator::new(closed, AutoRefresh::new(64.0));
        let o = sim_open.run(trace.clone().into_iter(), 1.0);
        let c = sim_closed.run(trace.into_iter(), 1.0);
        assert!(
            o.row_hits > 900,
            "open page exploits the locality: {}",
            o.row_hits
        );
        assert_eq!(c.row_hits, 0, "closed page never hits");
        assert_eq!(c.row_misses, c.accesses);
        // But closed page still notifies the policy about every activate,
        // so VRL-Access would see every access.
    }

    #[test]
    fn burst_refresh_inflates_stalls() {
        // Same refresh work, but all rows come due together: accesses
        // landing behind the burst wait far longer.
        let trace: Vec<TraceRecord> = (0..20_000u64)
            .map(|i| TraceRecord::new(i * 3200, Op::Read, (i % 512) as u32))
            .collect();
        let mut staggered = Simulator::new(small_config(512), AutoRefresh::new(64.0));
        let mut burst = Simulator::new(
            small_config(512).with_burst_refresh(),
            AutoRefresh::new(64.0),
        );
        let s = staggered.run(trace.clone().into_iter(), 64.0);
        let b = burst.run(trace.into_iter(), 64.0);
        assert_eq!(s.total_refreshes(), b.total_refreshes());
        assert!(
            b.stall_cycles > 2 * s.stall_cycles,
            "burst must stall much more: {} vs {}",
            b.stall_cycles,
            s.stall_cycles
        );
    }

    #[test]
    fn postponement_respects_the_slack_bound() {
        // With zero slack the behaviour is bit-identical to the default.
        let trace: Vec<TraceRecord> = (0..10_000u64)
            .map(|i| TraceRecord::new(i * 640, Op::Read, 1))
            .collect();
        let mut plain = Simulator::new(small_config(16), AutoRefresh::new(64.0));
        let mut zero_slack = Simulator::new(
            small_config(16).with_postpone_slack(0),
            AutoRefresh::new(64.0),
        );
        let p = plain.run(trace.clone().into_iter(), 16.0);
        let z = zero_slack.run(trace.into_iter(), 16.0);
        assert_eq!(p, z);
    }

    #[test]
    fn postponement_does_not_drift_the_schedule() {
        // Deadlines advance from the original due time, so the number of
        // refreshes over a long window is unchanged even under constant
        // postponement pressure.
        let trace: Vec<TraceRecord> = (0..200_000u64)
            .map(|i| TraceRecord::new(i * 320, Op::Read, (i % 8) as u32))
            .collect();
        let cfg = small_config(8).with_postpone_slack(100_000);
        let mut sim = Simulator::new(cfg, AutoRefresh::new(64.0));
        let s = sim.run(trace.into_iter(), 64.0);
        assert_eq!(s.total_refreshes(), 8, "one refresh per row per 64 ms");
    }

    #[test]
    fn span_segmentation_is_bit_identical_to_one_run() {
        let trace: Vec<TraceRecord> = (0..50_000u64)
            .map(|i| TraceRecord::new(i * 1000, Op::Read, (i % 64) as u32))
            .collect();
        let bins = bins_all(300.0, 64);
        let mk = || {
            Simulator::new(
                small_config(64).with_postpone_slack(64_000),
                VrlAccess::new(bins.clone(), vec![3; 64]),
            )
        };
        let mut whole = mk();
        let expected = whole.run(trace.clone().into_iter(), 64.0);

        let mut split = mk();
        let end = small_config(64).timing.ms_to_cycles(64.0);
        let mut records = trace.into_iter().peekable();
        // Pause at several arbitrary (even record-free) boundaries.
        for boundary in [1_000_000, 17_000_003, 17_000_004, 40_000_000, end] {
            split.run_span_observed(&mut records, boundary, &mut NullObserver);
        }
        let got = split.finish_observed(end, &mut NullObserver);
        assert_eq!(got, expected);
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let trace: Vec<TraceRecord> = (0..50_000u64)
            .map(|i| TraceRecord::new(i * 1000, Op::Read, (i % 64) as u32))
            .collect();
        let bins = bins_all(300.0, 64);
        let profile: Vec<f64> = vec![300.0; 64];
        let cfg = small_config(64).with_postpone_slack(64_000);
        let mk = || {
            let mut sim = Simulator::new(cfg, Vrl::new(bins.clone(), vec![3; 64]));
            sim.set_fault_injector(FaultInjector::new(
                crate::fault::FaultConfig {
                    overflow: Some(crate::fault::OverflowFault::default()),
                    ..crate::fault::FaultConfig::default_scenario(42)
                },
                &profile,
                cfg.timing,
            ));
            sim
        };
        let mut whole = mk();
        let expected = whole.run(trace.clone().into_iter(), 64.0);

        // Run half, snapshot, and "crash".
        let end = cfg.timing.ms_to_cycles(64.0);
        let checkpoint_at = end / 3;
        let mut first = mk();
        let mut records = trace.clone().into_iter().peekable();
        let consumed = first.run_span_observed(&mut records, checkpoint_at, &mut NullObserver);
        let mut enc = vrl_snap::Encoder::new();
        first.save_state(&mut enc);
        let bytes = enc.into_bytes();
        drop(first);

        // Resume into a fresh simulator, skipping the consumed records.
        let mut resumed = mk();
        let mut dec = vrl_snap::Decoder::new(&bytes);
        resumed.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();
        let mut rest = trace.into_iter().skip(consumed as usize).peekable();
        resumed.run_span_observed(&mut rest, end, &mut NullObserver);
        let got = resumed.finish_observed(end, &mut NullObserver);
        assert_eq!(got, expected);
    }

    #[test]
    fn snapshot_restore_rejects_shape_mismatch() {
        let mut with_injector = Simulator::new(small_config(8), AutoRefresh::new(64.0));
        with_injector.set_fault_injector(FaultInjector::new(
            crate::fault::FaultConfig::default(),
            &[100.0; 8],
            small_config(8).timing,
        ));
        let mut enc = vrl_snap::Encoder::new();
        with_injector.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut plain = Simulator::new(small_config(8), AutoRefresh::new(64.0));
        let err = plain
            .restore_state(&mut vrl_snap::Decoder::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(err, vrl_snap::SnapError::Malformed { .. }),
            "{err}"
        );
    }

    #[test]
    fn initial_deadlines_are_staggered() {
        let mut sim = Simulator::new(small_config(1024), AutoRefresh::new(64.0));
        // In the first 1 ms (1/64 of the period) only ~1/64 of rows are
        // due; without staggering all 1024 would fire at once.
        let stats = sim.run(std::iter::empty(), 1.0);
        assert!(
            stats.total_refreshes() < 64,
            "got {}",
            stats.total_refreshes()
        );
        assert!(stats.total_refreshes() > 2);
    }
}
