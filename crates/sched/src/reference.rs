//! The reference scheduler: the original per-bank-heap implementation.
//!
//! This is the pre-SoA architecture of [`crate::sched::Scheduler`] kept
//! as an executable specification and performance baseline: one heap
//! object per bank (`BankState` + its own timing wheel behind a pointer
//! each), a `VecDeque` four-activate window, one-record-per-iteration
//! trace admission, eager `on_activate` delivery, and `O(banks)` /
//! `O(banks × queue)` scans per scheduling decision. Channels are
//! simulated **sequentially** over channel-filtered sub-traces — the
//! semantics channel independence guarantees, with none of the
//! struct-of-arrays or sharding machinery.
//!
//! `tests/controller_equivalence.rs` holds the SoA scheduler
//! bit-identical to this engine across policies, traces, and DIMM
//! geometries, and the `hotloop` example's full-DIMM section measures
//! the SoA rewrite's speedup against it, failing below 2×.

use std::collections::VecDeque;

use vrl_trace::{Op, TraceRecord};

use vrl_dram_sim::bank::BankState;
use vrl_dram_sim::error::Error;
use vrl_dram_sim::policy::RefreshPolicy;
use vrl_dram_sim::timing::{RefreshLatency, TimingParams};
use vrl_dram_sim::wheel::RefreshQueue;

use crate::config::SchedConfig;
use crate::stats::SchedStats;

/// One bank's scheduling state: the bank machine plus its refresh wheel.
struct BankLane {
    state: BankState,
    refreshes: RefreshQueue,
}

/// A queued request, steered to its global bank on admission.
#[derive(Clone, Copy)]
struct Pending {
    record: TraceRecord,
    bank: u32,
    row: u32,
}

/// Per-rank activate bookkeeping: `tRRD`, the `tFAW` window, and the
/// `tRFC` refresh-start spacing all scope to one rank.
#[derive(Default)]
struct RankState {
    last_act: Option<(u64, u32)>,
    recent_acts: VecDeque<u64>,
    last_refresh: Option<u64>,
}

/// Per-channel shared-bus arbitration state.
struct BusState {
    last_cmd: Option<u64>,
    last_cas: Option<(u64, u32, bool)>,
    ranks: Vec<RankState>,
}

impl BusState {
    fn new(ranks: usize) -> Self {
        BusState {
            last_cmd: None,
            last_cas: None,
            ranks: (0..ranks).map(|_| RankState::default()).collect(),
        }
    }

    fn act_bound(&self, mut start: u64, rank: usize, bank: u32, timing: &TimingParams) -> u64 {
        let r = &self.ranks[rank];
        if let Some((at, b)) = r.last_act {
            if b != bank {
                start = start.max(at + timing.trrd);
            }
        }
        if r.recent_acts.len() == 4 {
            start = start.max(r.recent_acts[0] + timing.tfaw);
        }
        start
    }

    fn cas_bound(
        &self,
        start: u64,
        cas_offset: u64,
        bank: u32,
        is_write: bool,
        timing: &TimingParams,
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
        r.recent_acts.push_back(at);
        if r.recent_acts.len() > 4 {
            r.recent_acts.pop_front();
        }
    }

    fn note_cas(&mut self, at: u64, bank: u32, is_write: bool) {
        self.last_cas = Some((at, bank, is_write));
    }
}

/// The per-bank-heap reference scheduler (see the module docs).
pub struct ReferenceScheduler<P: RefreshPolicy> {
    config: SchedConfig,
    policy: P,
}

impl<P: RefreshPolicy> std::fmt::Debug for ReferenceScheduler<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceScheduler")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<P: RefreshPolicy> ReferenceScheduler<P> {
    /// Creates the reference engine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the queue depth is zero.
    pub fn new(config: SchedConfig, policy: P) -> Result<Self, Error> {
        if config.queue_depth == 0 {
            return Err(Error::InvalidConfig {
                reason: "scheduler queue must hold at least one request".into(),
            });
        }
        Ok(ReferenceScheduler { config, policy })
    }

    /// Runs the trace for `duration_ms`, one channel at a time.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if an internal scheduling invariant breaks.
    pub fn run<I: IntoIterator<Item = TraceRecord>>(
        &mut self,
        trace: I,
        duration_ms: f64,
    ) -> Result<SchedStats, Error> {
        let config = self.config;
        let end = config.timing.ms_to_cycles(duration_ms);
        let channels = config.channels() as usize;
        let banks_per_channel = config.banks_per_channel() as usize;

        // Steer every record up front and split by owning channel.
        let mut per_channel: Vec<Vec<Pending>> = vec![Vec::new(); channels];
        for record in trace.into_iter().take_while(|r| r.cycle < end) {
            let (bank, row) = config.steer(record.row);
            per_channel[bank as usize / banks_per_channel].push(Pending { record, bank, row });
        }

        let mut stats = SchedStats {
            per_bank_refreshes: vec![0; config.banks() as usize],
            per_bank_accesses: vec![0; config.banks() as usize],
            ..SchedStats::default()
        };
        let mut max_busy = 0u64;
        for (c, records) in per_channel.into_iter().enumerate() {
            let busy = run_channel(&config, &mut self.policy, &mut stats, c, records, end)?;
            max_busy = max_busy.max(busy);
        }
        stats.sim.total_cycles = end.max(max_busy);
        Ok(stats)
    }
}

/// Runs one channel's scheduling loop to completion, returning the
/// channel's final maximum bank occupancy.
fn run_channel<P: RefreshPolicy>(
    config: &SchedConfig,
    policy: &mut P,
    stats: &mut SchedStats,
    channel: usize,
    records: Vec<Pending>,
    end: u64,
) -> Result<u64, Error> {
    let timing = config.timing;
    let banks_per_channel = config.banks_per_channel() as usize;
    let banks_per_rank = config.banks_per_rank() as usize;
    let first_bank = channel * banks_per_channel;
    let rank_of = |bank: u32| (bank as usize / banks_per_rank) % config.ranks() as usize;

    let mut lanes: Vec<BankLane> = Vec::with_capacity(banks_per_channel);
    for local in 0..banks_per_channel {
        let bank = (first_bank + local) as u32;
        let mut refreshes = RefreshQueue::new();
        for row in 0..config.rows_per_bank() {
            let global = config.global_row(bank, row);
            let period = timing.ms_to_cycles(policy.period_ms(global));
            let offset = if config.staggered {
                (global as u64).wrapping_mul(2654435761) % period.max(1)
            } else {
                0
            };
            refreshes.push(offset, row, offset);
        }
        lanes.push(BankLane {
            state: BankState::new(),
            refreshes,
        });
    }
    let mut bus = BusState::new(config.ranks() as usize);
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let mut trace = records.into_iter().peekable();
    let mut now = 0u64;
    let mut last_stall: Option<u64> = None;

    // One refresh on `bank` issuing at (or just after) `issue_at`.
    let execute_refresh = |lanes: &mut Vec<BankLane>,
                           bus: &mut BusState,
                           policy: &mut P,
                           stats: &mut SchedStats,
                           bank: usize,
                           issue_at: u64,
                           row: u32,
                           original_due: u64,
                           contended: bool| {
        let global_bank = (first_bank + bank) as u32;
        let rank = rank_of(global_bank);
        let lane = &mut lanes[bank];
        let mut start = lane.state.ready_at(issue_at);
        if let Some(last) = bus.ranks[rank].last_refresh {
            start = start.max(last + timing.trfc);
        }
        start = bus.claim_cmd(start);
        bus.ranks[rank].last_refresh = Some(start);
        let mut duration = 0;
        if lane.state.open_row().is_some() {
            lane.state.precharge();
            duration += timing.trp;
        }
        let global = config.global_row(global_bank, row);
        let kind = policy.refresh_kind(global);
        let refresh_cycles = timing.refresh_cycles(kind);
        duration += refresh_cycles;
        lane.state.occupy(start, duration);
        stats.sim.refresh_busy_cycles += refresh_cycles;
        if contended {
            stats.refresh_blocked_cycles += refresh_cycles;
        }
        match kind {
            RefreshLatency::Full => stats.sim.full_refreshes += 1,
            RefreshLatency::Partial => stats.sim.partial_refreshes += 1,
        }
        stats.per_bank_refreshes[global_bank as usize] += 1;
        let period = timing.ms_to_cycles(policy.period_ms(global)).max(1);
        let next = original_due + period;
        lane.refreshes.push(next, row, next);
    };

    loop {
        let min_ready = lanes
            .iter()
            .map(|l| l.state.ready_at(now))
            .min()
            .unwrap_or(now);
        now = now.max(min_ready);

        // Admit arrivals that have happened by `now`.
        while queue.len() < config.queue_depth {
            match trace.peek() {
                Some(p) if p.record.cycle <= now => {
                    queue.push_back(*p);
                    trace.next();
                }
                _ => break,
            }
        }
        stats.max_queue_depth = stats.max_queue_depth.max(queue.len());
        if queue.len() == config.queue_depth
            && trace.peek().is_some_and(|p| p.record.cycle <= now)
            && last_stall != Some(now)
        {
            last_stall = Some(now);
            stats.queue_stalls += 1;
        }

        // Refreshes due by `now` on free banks.
        let refreshed = {
            let horizon = now.saturating_add(1).min(end);
            let mut fired = false;
            loop {
                let mut best: Option<(u64, usize)> = None;
                for (b, lane) in lanes.iter_mut().enumerate() {
                    if lane.state.ready_at(now) != now {
                        continue;
                    }
                    if let Some(due) = lane.refreshes.next_due() {
                        if due < horizon && best.is_none_or(|(d, _)| due < d) {
                            best = Some((due, b));
                        }
                    }
                }
                let Some((_, bank)) = best else {
                    break;
                };
                let (due, row, original_due) = lanes[bank]
                    .refreshes
                    .pop_due_before(horizon)
                    .ok_or(Error::SchedulerStalled { cycle: now })?;
                let global_bank = (first_bank + bank) as u32;
                let contended = queue.iter().any(|p| p.bank == global_bank);
                if config.parallel_refresh && contended {
                    let deadline = original_due.saturating_add(config.slack);
                    if now < deadline {
                        let step = (config.slack / 8).max(timing.tau_full).max(1);
                        let retry = (now + step).min(deadline).max(now + 1);
                        lanes[bank].refreshes.push(retry, row, original_due);
                        stats.sim.postponed_refreshes += 1;
                        continue;
                    }
                }
                execute_refresh(
                    &mut lanes,
                    &mut bus,
                    policy,
                    stats,
                    bank,
                    now.max(due),
                    row,
                    original_due,
                    contended,
                );
                fired = true;
                break;
            }
            fired
        };
        if refreshed {
            continue;
        }

        // FR-FCFS demand on free banks: the oldest hitting its bank's
        // open row, else the oldest on a free bank.
        let local = |p: &Pending| p.bank as usize - first_bank;
        let free = |lanes: &[BankLane], p: &Pending| lanes[local(p)].state.ready_at(now) == now;
        let pick = queue
            .iter()
            .position(|p| free(&lanes, p) && lanes[local(p)].state.open_row() == Some(p.row))
            .or_else(|| queue.iter().position(|p| free(&lanes, p)));
        if let Some(idx) = pick {
            if idx != 0 {
                stats.reordered += 1;
            }
            let len = queue.len();
            let pending = queue
                .remove(idx)
                .ok_or(Error::QueueIndexInvalid { index: idx, len })?;
            // Service the request.
            let bank = local(&pending);
            let rank = rank_of(pending.bank);
            let hit = lanes[bank].state.open_row() == Some(pending.row);
            let latency = if hit {
                timing.hit_latency()
            } else if lanes[bank].state.open_row().is_some() {
                timing.miss_latency()
            } else {
                timing.trcd + timing.tcl
            };
            let cas_offset = latency - timing.tcl;
            let is_write = pending.record.op == Op::Write;

            let mut start = lanes[bank].state.ready_at(now);
            if !hit {
                start = bus.act_bound(start, rank, pending.bank, &timing);
            }
            start = bus.cas_bound(start, cas_offset, pending.bank, is_write, &timing);
            start = bus.claim_cmd(start);

            stats.sim.stall_cycles += start - pending.record.cycle;
            stats.sim.accesses += 1;
            stats.per_bank_accesses[pending.bank as usize] += 1;
            if hit {
                stats.sim.row_hits += 1;
            } else {
                stats.sim.row_misses += 1;
            }
            let done = lanes[bank].state.occupy(start, latency);
            if !hit {
                lanes[bank].state.set_open_row(pending.row);
                policy.on_activate(config.global_row(pending.bank, pending.row));
                bus.note_act(start, rank, pending.bank);
            }
            bus.note_cas(start + cas_offset, pending.bank, is_write);
            if pending.record.op == Op::Read {
                stats.read_latency.record(done - pending.record.cycle);
            }
            continue;
        }

        // Idle banks pull upcoming refreshes in early.
        let upcoming = trace.peek().map(|p| p.record.cycle);
        let pulled_in = 'pull: {
            if !config.parallel_refresh || config.slack == 0 {
                break 'pull false;
            }
            if upcoming.is_some_and(|a| a < now + timing.tau_full) {
                break 'pull false;
            }
            let horizon = now.saturating_add(config.slack).saturating_add(1).min(end);
            for bank in 0..lanes.len() {
                if lanes[bank].state.ready_at(now) != now {
                    continue;
                }
                let global_bank = (first_bank + bank) as u32;
                if queue.iter().any(|p| p.bank == global_bank) {
                    continue;
                }
                if let Some((_, row, original_due)) = lanes[bank].refreshes.pop_due_before(horizon)
                {
                    stats.pulled_in_refreshes += 1;
                    execute_refresh(
                        &mut lanes,
                        &mut bus,
                        policy,
                        stats,
                        bank,
                        now,
                        row,
                        original_due,
                        false,
                    );
                    break 'pull true;
                }
            }
            false
        };
        if pulled_in {
            continue;
        }

        // Advance to the next arrival, refresh deadline, or bank release.
        let next_arrival = upcoming.filter(|_| queue.len() < config.queue_depth);
        let next_refresh = lanes
            .iter_mut()
            .filter_map(|l| {
                let due = l.refreshes.next_due()?;
                (due < end).then(|| due.max(l.state.busy_until()))
            })
            .min();
        let next_release = lanes
            .iter()
            .enumerate()
            .filter(|(b, lane)| {
                lane.state.busy_until() > now
                    && queue.iter().any(|p| p.bank as usize == first_bank + *b)
            })
            .map(|(_, lane)| lane.state.busy_until())
            .min();
        match [next_arrival, next_refresh, next_release]
            .into_iter()
            .flatten()
            .min()
        {
            Some(t) if t > now => now = t,
            Some(_) => return Err(Error::SchedulerStalled { cycle: now }),
            None => {
                return Ok(lanes
                    .iter()
                    .map(|l| l.state.busy_until())
                    .max()
                    .unwrap_or(0))
            }
        }
    }
}
