//! Runtime integrity guard: ECC-based detection plus graceful policy
//! degradation.
//!
//! VRL's refresh plan is only as good as its offline retention profile.
//! The [`Guard`] models the controller-side safety net a real deployment
//! would pair with it:
//!
//! * **Detection** — every sensing of a row (a refresh, an access
//!   activation, or a periodic scrub read) is checked against a SECDED
//!   margin band. A row sensed with charge in `[threshold − margin,
//!   threshold)` has few enough failed cells for ECC to correct; below
//!   the band the word is uncorrectable and the data is lost.
//! * **Correction** — a correctable error triggers an ECC write-back
//!   that fully restores the row's charge (the corrected data is
//!   rewritten).
//! * **Degradation** — every detected error also requests one step of
//!   the policy's degradation ladder
//!   ([`AdaptivePolicy::degrade`](crate::policy::AdaptivePolicy)):
//!   the row's partial-refresh budget is halved (exponential backoff
//!   down to always-full refresh), then the row is re-binned
//!   RAIDR-style toward the 64 ms floor. Degradation is monotone — a
//!   row never regains a cheaper refresh configuration without a full
//!   re-profile.
//! * **Scrub** — an optional background sweep reads every row once per
//!   `scrub_interval_ms`, catching decay on rows the workload never
//!   touches. Scrub occupancy and energy are charged to dedicated
//!   counters ([`SimStats::scrub_busy_cycles`](crate::stats::SimStats),
//!   the power model's scrub term), not to refresh busy time.
//!
//! The guard tracks *ground-truth* retention (fed to it by the fault
//! injector through
//! [`SimObserver::on_retention_change`](crate::sim::SimObserver)), so
//! its verdicts are exact within the charge model.
//!
//! Its per-row charge lives in a `ChargeTracker`, shared with the
//! integrity checker. Refreshes, scrubs and retention changes leak the
//! row exactly with `exp`. An activation first compares the cycles since
//! the row's last event with the row's deadline: before it, the row
//! provably senses at or above the threshold, so no error is possible
//! and the row is simply restored to full charge. At or past it, the
//! activation takes the exact path. Either way the counters, queued
//! degradations and stored charges are those of the exact path.

use crate::integrity::{ChargePhysics, ChargeTracker};
use crate::policy::DegradeAction;
use crate::sim::SimObserver;
use crate::timing::{RefreshLatency, TimingParams};

/// Guard parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Width of the SECDED-correctable charge band below the sensing
    /// threshold. A sensed charge in `[threshold − margin, threshold)`
    /// is correctable; anything lower is an uncorrectable loss.
    pub margin: f64,
    /// Period of one full background scrub sweep over the bank, in ms
    /// (every row is read once per interval). `0` disables scrubbing.
    ///
    /// The default sweep is deliberately *slow* relative to the refresh
    /// periods (2048 ms vs the 64–256 ms bins): scrub is a detection
    /// backstop for rows the workload never touches, not a refresh
    /// substitute. A sweep faster than a row's full-refresh cadence
    /// would restore marginal rows before they are ever sensed below
    /// threshold, silently masking the very faults the guard exists to
    /// catch and degrade.
    pub scrub_interval_ms: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            margin: 0.09,
            scrub_interval_ms: 2048.0,
        }
    }
}

/// Counters describing what the guard saw and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GuardStats {
    /// Errors detected inside the correctable band and repaired.
    pub corrected: u64,
    /// Errors detected below the correctable band: data was lost.
    pub uncorrected: u64,
    /// Ladder steps that halved a row's MPRSF.
    pub mprsf_demotions: u64,
    /// Ladder steps that re-binned a row to a shorter period.
    pub bin_demotions: u64,
    /// Errors on rows already at the most conservative configuration.
    pub at_floor_errors: u64,
    /// Scrub reads issued.
    pub scrubbed_rows: u64,
}

/// The runtime integrity guard. Implements [`SimObserver`] so it senses
/// every refresh and activation; drive it with
/// [`Simulator::run_guarded`](crate::sim::Simulator::run_guarded) to add
/// scrubbing and policy degradation.
#[derive(Debug, Clone)]
pub struct Guard<C: ChargePhysics> {
    /// Per-row charge over ground-truth retention, kept current by
    /// `on_retention_change`.
    tracker: ChargeTracker<C>,
    config: GuardConfig,
    /// Rows with detected errors awaiting a degradation step.
    pending_degrades: Vec<u32>,
    /// Round-robin scrub pointer and schedule.
    scrub_row: u32,
    scrub_stride_cycles: u64,
    next_scrub: u64,
    stats: GuardStats,
}

impl<C: ChargePhysics> Guard<C> {
    /// Creates a guard over a bank whose true per-row retention starts
    /// at `retention_ms`. All rows start fully charged at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `retention_ms` is empty or contains a non-positive
    /// value, or if `margin` is negative or at least the sensing
    /// threshold.
    pub fn new(
        physics: C,
        timing: TimingParams,
        retention_ms: Vec<f64>,
        config: GuardConfig,
    ) -> Self {
        assert!(!retention_ms.is_empty(), "at least one row required");
        assert!(
            retention_ms.iter().all(|&t| t > 0.0),
            "retention must be positive"
        );
        assert!(
            config.margin >= 0.0 && config.margin < physics.threshold(),
            "margin must lie in [0, threshold)"
        );
        let rows = retention_ms.len();
        // Spread the sweep evenly: one row every interval/rows cycles.
        let scrub_stride_cycles = if config.scrub_interval_ms > 0.0 {
            (timing.ms_to_cycles(config.scrub_interval_ms) / rows as u64).max(1)
        } else {
            0
        };
        let next_scrub = if scrub_stride_cycles > 0 {
            scrub_stride_cycles
        } else {
            u64::MAX
        };
        Guard {
            tracker: ChargeTracker::new(physics, timing, retention_ms),
            config,
            pending_degrades: Vec::new(),
            scrub_row: 0,
            scrub_stride_cycles,
            next_scrub,
            stats: GuardStats::default(),
        }
    }

    /// The guard's counters.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// The guard's configuration.
    pub fn config(&self) -> GuardConfig {
        self.config
    }

    /// Current charge of a row (as of its last event).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn charge_of(&self, row: u32) -> f64 {
        self.tracker.charge_of(row)
    }

    /// Cycle of the next scheduled scrub read (`u64::MAX` if scrubbing
    /// is disabled).
    pub fn next_scrub_cycle(&self) -> u64 {
        self.next_scrub
    }

    /// Executes the scheduled scrub read: senses the next row in the
    /// round-robin sweep at `cycle` (the read fully restores it) and
    /// advances the schedule.
    pub fn scrub_next(&mut self, cycle: u64) -> u32 {
        let row = self.scrub_row;
        let rows = self.tracker.rows() as u32;
        self.scrub_row = (self.scrub_row + 1) % rows;
        self.next_scrub = self.next_scrub.saturating_add(self.scrub_stride_cycles);
        self.stats.scrubbed_rows += 1;
        self.sense(row, cycle);
        // The scrub read activates the row, fully restoring its charge.
        self.tracker.restore_full(row);
        row
    }

    /// Whether any detected error awaits its degradation step.
    #[inline(always)]
    pub fn has_pending_degrades(&self) -> bool {
        !self.pending_degrades.is_empty()
    }

    /// Takes the rows awaiting a degradation step (each entry is one
    /// detected error, i.e. one ladder step).
    pub fn take_pending_degrades(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.pending_degrades)
    }

    /// Records the outcome of a degradation step applied by the caller.
    pub fn record_degrade(&mut self, action: DegradeAction) {
        match action {
            DegradeAction::MprsfHalved(_) => self.stats.mprsf_demotions += 1,
            DegradeAction::BinDemoted(_) => self.stats.bin_demotions += 1,
            DegradeAction::AtFloor => self.stats.at_floor_errors += 1,
        }
    }

    /// Senses `row` at `cycle` on the exact path: leaks it forward, runs
    /// the SECDED check, and on any detected error restores full charge
    /// (the ECC write-back) and queues a degradation step. Returns the
    /// charge *after* the check (restored if an error was found).
    fn sense(&mut self, row: u32, cycle: u64) -> f64 {
        let q = self.tracker.settle(row, cycle);
        // Same tolerance as the integrity checker: a row at exactly the
        // threshold (retention == period) is safe by definition.
        if self.tracker.below_threshold(q) {
            if q >= self.tracker.physics().threshold() - self.config.margin {
                self.stats.corrected += 1;
            } else {
                self.stats.uncorrected += 1;
            }
            self.pending_degrades.push(row);
            self.tracker.restore_full(row);
        }
        self.tracker.charge_of(row)
    }
}

impl<C: ChargePhysics> SimObserver for Guard<C> {
    fn on_refresh(&mut self, row: u32, kind: RefreshLatency, cycle: u64) {
        // After an ECC write-back `sense` leaves the row at full charge,
        // on which a refresh of either latency class is a no-op.
        let q = self.sense(row, cycle);
        let after = self.tracker.physics().after_refresh(kind, q);
        self.tracker.set_charge(row, after);
    }

    fn on_activate(&mut self, row: u32, cycle: u64) {
        if !self.tracker.activate_if_safe(row, cycle) {
            self.sense(row, cycle);
            self.tracker.restore_full(row);
        }
    }

    fn on_retention_change(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        assert!(retention_ms > 0.0, "retention must be positive");
        // Leaked forward without sensing: nothing reads the row.
        self.tracker.settle(row, cycle);
        self.tracker.set_retention(row, retention_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::LinearPhysics;

    fn physics() -> LinearPhysics {
        LinearPhysics {
            full: 0.95,
            partial_gain: 0.4,
            threshold: 0.62,
        }
    }

    fn timing() -> TimingParams {
        TimingParams::paper_default()
    }

    #[test]
    fn healthy_row_senses_clean() {
        let mut g = Guard::new(physics(), timing(), vec![256.0], GuardConfig::default());
        // One full period on a retention == period row: lands exactly at
        // the threshold, which is safe.
        g.on_refresh(0, RefreshLatency::Full, timing().ms_to_cycles(256.0));
        assert_eq!(g.stats().corrected, 0);
        assert_eq!(g.stats().uncorrected, 0);
        assert!(g.take_pending_degrades().is_empty());
    }

    #[test]
    fn shallow_excursion_is_corrected_and_restored() {
        // Retention 0.8 × period: after one full period the charge is
        // 0.95·e^(−k/0.8) ≈ 0.557, inside the 0.09 band below 0.62.
        let mut g = Guard::new(physics(), timing(), vec![204.8], GuardConfig::default());
        g.on_refresh(0, RefreshLatency::Full, timing().ms_to_cycles(256.0));
        assert_eq!(g.stats().corrected, 1);
        assert_eq!(g.stats().uncorrected, 0);
        assert_eq!(g.take_pending_degrades(), vec![0]);
        // The ECC write-back restored full charge (and the refresh on a
        // full row keeps it full).
        assert_eq!(g.charge_of(0), 0.95);
    }

    #[test]
    fn deep_excursion_is_uncorrectable() {
        // Two missed periods: charge falls far below the margin band.
        let mut g = Guard::new(physics(), timing(), vec![200.0], GuardConfig::default());
        g.on_activate(0, timing().ms_to_cycles(512.0));
        assert_eq!(g.stats().corrected, 0);
        assert_eq!(g.stats().uncorrected, 1);
        assert_eq!(g.take_pending_degrades(), vec![0]);
    }

    #[test]
    fn retention_change_settles_under_the_old_law() {
        let t = timing();
        let mut g = Guard::new(physics(), t, vec![256.0], GuardConfig::default());
        // Halfway through the period the row toggles weak; the first
        // half decays at 256 ms retention, the second at 128 ms, so the
        // refresh senses below where a 256 ms row would be.
        g.on_retention_change(0, 128.0, t.ms_to_cycles(128.0));
        g.on_refresh(0, RefreshLatency::Full, t.ms_to_cycles(256.0));
        assert_eq!(g.stats().corrected + g.stats().uncorrected, 1);
    }

    #[test]
    fn scrub_sweeps_rows_round_robin() {
        let t = timing();
        let mut g = Guard::new(
            physics(),
            t,
            vec![300.0; 4],
            GuardConfig {
                margin: 0.09,
                scrub_interval_ms: 4.0,
            },
        );
        let stride = t.ms_to_cycles(4.0) / 4;
        assert_eq!(g.next_scrub_cycle(), stride);
        let mut order = Vec::new();
        for i in 1..=6 {
            order.push(g.scrub_next(stride * i));
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1]);
        assert_eq!(g.stats().scrubbed_rows, 6);
        assert_eq!(g.next_scrub_cycle(), stride * 7);
    }

    #[test]
    fn disabled_scrub_never_fires() {
        let g = Guard::new(
            physics(),
            timing(),
            vec![300.0],
            GuardConfig {
                margin: 0.09,
                scrub_interval_ms: 0.0,
            },
        );
        assert_eq!(g.next_scrub_cycle(), u64::MAX);
    }

    #[test]
    fn degrade_outcomes_are_tallied() {
        let mut g = Guard::new(physics(), timing(), vec![300.0], GuardConfig::default());
        g.record_degrade(DegradeAction::MprsfHalved(1));
        g.record_degrade(DegradeAction::BinDemoted(
            vrl_retention::binning::RefreshBin::Ms192,
        ));
        g.record_degrade(DegradeAction::AtFloor);
        let s = g.stats();
        assert_eq!(
            (s.mprsf_demotions, s.bin_demotions, s.at_floor_errors),
            (1, 1, 1)
        );
    }

    #[test]
    #[should_panic(expected = "margin must lie in [0, threshold)")]
    fn oversized_margin_panics() {
        let _ = Guard::new(
            physics(),
            timing(),
            vec![300.0],
            GuardConfig {
                margin: 0.7,
                scrub_interval_ms: 0.0,
            },
        );
    }
}
