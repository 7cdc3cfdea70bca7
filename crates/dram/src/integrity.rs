//! Data-integrity checking: does a policy ever let a row's charge fall
//! below the sensing threshold?
//!
//! The checker tracks every row's charge fraction through leakage,
//! refreshes, and activations, using a [`ChargePhysics`] supplied by the
//! caller (the core crate wires in the analytical circuit model). It is
//! the failure-injection harness of the test suite: give VRL an MPRSF
//! that is too optimistic and the checker reports the violation.
//!
//! Both the checker and the runtime [`Guard`](crate::guard::Guard) keep
//! their per-row charge in a `ChargeTracker`. Its exact path leaks a
//! row with `exp` to the sensing instant and compares the result with
//! the floor `threshold − 1e-9`; that path is the specification. An
//! activation ends at full charge whatever it senses, so the only thing
//! it needs from the leak is the verdict "below the floor?". The
//! tracker answers that with one integer compare against a per-row
//! deadline, `safe`: the number of elapsed cycles strictly below which
//! the exact sensed charge is provably at or above the floor. Anything
//! else (a refresh, a retention change, a scrub, or an activation at or
//! past the deadline) takes the exact path, so verdicts, recorded
//! charges and every stored charge are those of the exact path, bit for
//! bit.

use vrl_retention::leakage::LeakageModel;

use crate::sim::SimObserver;
use crate::timing::{RefreshLatency, TimingParams};

/// The charge physics a policy is checked against.
pub trait ChargePhysics {
    /// Charge fraction right after a refresh of `kind` for a cell
    /// currently at `start` (post-leakage) charge.
    fn after_refresh(&self, kind: RefreshLatency, start: f64) -> f64;
    /// Charge fraction after an activation (full restore).
    fn full_level(&self) -> f64;
    /// The sensing threshold below which data is lost.
    fn threshold(&self) -> f64;
}

/// A simple linear physics for tests: full restore to `full`, partial
/// closes `partial_gain` of the deficit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPhysics {
    /// Full-refresh charge level.
    pub full: f64,
    /// Fraction of the deficit a partial refresh closes.
    pub partial_gain: f64,
    /// Sensing threshold.
    pub threshold: f64,
}

impl ChargePhysics for LinearPhysics {
    fn after_refresh(&self, kind: RefreshLatency, start: f64) -> f64 {
        match kind {
            RefreshLatency::Full => self.full,
            RefreshLatency::Partial => start + self.partial_gain * (self.full - start),
        }
    }

    fn full_level(&self) -> f64 {
        self.full
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// A recorded integrity violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// The row that lost data.
    pub row: u32,
    /// Cycle of the refresh/activation that found the row below
    /// threshold.
    pub cycle: u64,
    /// The charge fraction observed.
    pub charge: f64,
}

/// Relative width of the band above the sensing floor in which an
/// activation always takes the exact path. The deadline is where a row
/// decays to `floor · (1 + DEADLINE_BAND)`, so before it the exact
/// charge clears the floor by a relative 1e-6: about ten orders of
/// magnitude more than the few-ULP error of the `exp`/`ln` arithmetic
/// on either side.
const DEADLINE_BAND: f64 = 1e-6;

/// One row's charge state.
#[derive(Debug, Clone, Copy)]
struct RowCharge {
    retention_ms: f64,
    /// Charge fraction at `last_cycle`.
    charge: f64,
    last_cycle: u64,
    /// Cycles after `last_cycle` strictly below which the exact sensed
    /// charge is at or above the floor; `0` always takes the exact path.
    safe: u64,
    /// `safe` of a fully charged row at `retention_ms`.
    full_safe: u64,
}

/// Per-row charge tracking, shared by [`IntegrityChecker`] and
/// [`Guard`](crate::guard::Guard): the exact `exp` leak, and the
/// activation deadline that skips it (see the module docs).
///
/// Every row starts fully charged at cycle 0. A deadline costs one `ln`
/// whenever a refresh, a retention change or an ECC write-back sets a
/// row's charge; after an activation it is a per-row constant for full
/// charge, recomputed only when the row's retention changes. Deadlines
/// are derived state: a snapshot of the tracker would rebuild them,
/// never save them.
#[derive(Debug, Clone)]
pub(crate) struct ChargeTracker<C: ChargePhysics> {
    physics: C,
    leakage: LeakageModel,
    timing: TimingParams,
    full: f64,
    /// `(threshold − 1e-9) · (1 + DEADLINE_BAND)`.
    banded_floor: f64,
    /// Cycles per ms over the leakage rate constant: a row with
    /// retention `T` at charge `q` reaches `banded_floor` after
    /// `T · ln(q / banded_floor) · cycles_per_rate` cycles.
    cycles_per_rate: f64,
    rows: Vec<RowCharge>,
}

impl<C: ChargePhysics> ChargeTracker<C> {
    /// Creates a tracker with every row fully charged at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold < full_level <= 1`.
    pub(crate) fn new(physics: C, timing: TimingParams, retention_ms: Vec<f64>) -> Self {
        let full = physics.full_level();
        let leakage = LeakageModel::new(full, physics.threshold());
        let banded_floor = (physics.threshold() - 1e-9) * (1.0 + DEADLINE_BAND);
        let cycles_per_rate = 1000.0 * timing.cycles_per_us as f64 / leakage.rate_constant();
        let mut tracker = ChargeTracker {
            physics,
            leakage,
            timing,
            full,
            banded_floor,
            cycles_per_rate,
            rows: Vec::with_capacity(retention_ms.len()),
        };
        for retention_ms in retention_ms {
            let full_safe = tracker.safe_cycles(full, retention_ms);
            tracker.rows.push(RowCharge {
                retention_ms,
                charge: full,
                last_cycle: 0,
                safe: full_safe,
                full_safe,
            });
        }
        tracker
    }

    /// The charge physics.
    pub(crate) fn physics(&self) -> &C {
        &self.physics
    }

    /// Rows tracked.
    pub(crate) fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Current charge of a row (as of its last event).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub(crate) fn charge_of(&self, row: u32) -> f64 {
        self.rows[row as usize].charge
    }

    /// The row's activation deadline: elapsed cycles since its last
    /// event strictly below which an activation skips the exact path.
    #[cfg(test)]
    fn safe_elapsed(&self, row: u32) -> u64 {
        self.rows[row as usize].safe
    }

    /// Whether a sensed charge lost data. Strict, with a small
    /// tolerance: a row whose retention exactly equals its refresh
    /// period sits *at* the threshold at the refresh instant, which is
    /// safe by definition.
    pub(crate) fn below_threshold(&self, q: f64) -> bool {
        q < self.physics.threshold() - 1e-9
    }

    /// The exact path: leaks `row` forward to `cycle` with `exp` and
    /// returns the charge, which is stored. The row's deadline is
    /// cleared until the caller sets its charge or retention.
    pub(crate) fn settle(&mut self, row: u32, cycle: u64) -> f64 {
        let r = &mut self.rows[row as usize];
        let elapsed_ms = self.timing.cycles_to_ms(cycle.saturating_sub(r.last_cycle));
        let q = self
            .leakage
            .charge_after(r.charge, elapsed_ms, r.retention_ms);
        r.charge = q;
        r.last_cycle = cycle;
        r.safe = 0;
        q
    }

    /// Sets a row's charge (a refresh's outcome), with its deadline.
    pub(crate) fn set_charge(&mut self, row: u32, q: f64) {
        let safe = self.safe_cycles(q, self.rows[row as usize].retention_ms);
        let r = &mut self.rows[row as usize];
        r.charge = q;
        r.safe = safe;
    }

    /// Restores a row to full charge (an activation, a scrub read or an
    /// ECC write-back).
    pub(crate) fn restore_full(&mut self, row: u32) {
        let full = self.full;
        let r = &mut self.rows[row as usize];
        r.charge = full;
        r.safe = r.full_safe;
    }

    /// Changes a row's retention; settle the row to the change's cycle
    /// first.
    pub(crate) fn set_retention(&mut self, row: u32, retention_ms: f64) {
        let full_safe = self.safe_cycles(self.full, retention_ms);
        let r = &mut self.rows[row as usize];
        r.retention_ms = retention_ms;
        r.full_safe = full_safe;
        let q = r.charge;
        self.set_charge(row, q);
    }

    /// An activation of `row` at `cycle` that provably senses at least
    /// the floor: restores the row to full charge, as the exact path
    /// would, and returns `true`. Otherwise changes nothing and returns
    /// `false`; the caller takes the exact path. The test is strict, so
    /// a row with no deadline (`safe == 0`) takes the exact path even
    /// at zero elapsed time.
    #[inline(always)]
    pub(crate) fn activate_if_safe(&mut self, row: u32, cycle: u64) -> bool {
        let full = self.full;
        let r = &mut self.rows[row as usize];
        if cycle.saturating_sub(r.last_cycle) < r.safe {
            r.charge = full;
            r.last_cycle = cycle;
            r.safe = r.full_safe;
            true
        } else {
            false
        }
    }

    /// The deadline of a row at charge `q` and retention
    /// `retention_ms`: the whole cycles before it decays to the banded
    /// floor, or 0 if it starts at or below it. The cast truncates and
    /// saturates, so the deadline never lies past the crossing.
    fn safe_cycles(&self, q: f64, retention_ms: f64) -> u64 {
        if q > self.banded_floor {
            (retention_ms * (q / self.banded_floor).ln() * self.cycles_per_rate) as u64
        } else {
            0
        }
    }
}

/// Charge-tracking integrity checker (a [`SimObserver`]).
#[derive(Debug, Clone)]
pub struct IntegrityChecker<C: ChargePhysics> {
    tracker: ChargeTracker<C>,
    violations: Vec<Violation>,
}

impl<C: ChargePhysics> IntegrityChecker<C> {
    /// Creates a checker; all rows start fully refreshed at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `retention_ms` is empty.
    pub fn new(physics: C, timing: TimingParams, retention_ms: Vec<f64>) -> Self {
        assert!(!retention_ms.is_empty(), "at least one row required");
        IntegrityChecker {
            tracker: ChargeTracker::new(physics, timing, retention_ms),
            violations: Vec::new(),
        }
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Current charge of a row (as of its last event).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn charge_of(&self, row: u32) -> f64 {
        self.tracker.charge_of(row)
    }

    /// Changes a row's retention time mid-run (a VRT state toggle): the
    /// row's charge is first settled to `cycle` under the old retention,
    /// then the new value takes effect.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `retention_ms` is not
    /// positive.
    pub fn update_retention(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        assert!(retention_ms > 0.0, "retention must be positive");
        self.leak_to(row, cycle);
        self.tracker.set_retention(row, retention_ms);
    }

    /// Leaks row `row` forward to `cycle` on the exact path and checks
    /// the threshold.
    fn leak_to(&mut self, row: u32, cycle: u64) -> f64 {
        let q = self.tracker.settle(row, cycle);
        if self.tracker.below_threshold(q) {
            self.violations.push(Violation {
                row,
                cycle,
                charge: q,
            });
        }
        q
    }
}

impl<C: ChargePhysics> SimObserver for IntegrityChecker<C> {
    fn on_refresh(&mut self, row: u32, kind: RefreshLatency, cycle: u64) {
        let q = self.leak_to(row, cycle);
        let after = self.tracker.physics().after_refresh(kind, q);
        self.tracker.set_charge(row, after);
    }

    fn on_activate(&mut self, row: u32, cycle: u64) {
        if !self.tracker.activate_if_safe(row, cycle) {
            self.leak_to(row, cycle);
            self.tracker.restore_full(row);
        }
    }

    fn on_retention_change(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        self.update_retention(row, retention_ms, cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Raidr, Vrl};
    use crate::sim::{SimConfig, Simulator};
    use vrl_retention::binning::BinningTable;
    use vrl_retention::profile::BankProfile;

    fn physics() -> LinearPhysics {
        LinearPhysics {
            full: 0.95,
            partial_gain: 0.4,
            threshold: 0.62,
        }
    }

    fn setup(retention_ms: f64, rows: usize) -> (BinningTable, Vec<f64>) {
        let profile = BankProfile::from_rows(std::iter::repeat_n(retention_ms, rows), 32);
        (
            BinningTable::from_profile(&profile),
            vec![retention_ms; rows],
        )
    }

    #[test]
    fn raidr_never_violates() {
        let (bins, retention) = setup(300.0, 16);
        let mut checker =
            IntegrityChecker::new(physics(), TimingParams::paper_default(), retention);
        let mut sim = Simulator::new(SimConfig::with_rows(16), Raidr::new(bins));
        sim.run_observed(std::iter::empty(), 2048.0, &mut checker);
        assert!(
            checker.violations().is_empty(),
            "{:?}",
            checker.violations()
        );
    }

    #[test]
    fn conservative_vrl_never_violates() {
        // Retention 1500 ms in the 256 ms bin: d per period ≈ 0.90; with
        // partial_gain 0.4 the fixed point stays well above threshold.
        let (bins, retention) = setup(1500.0, 16);
        let mut checker =
            IntegrityChecker::new(physics(), TimingParams::paper_default(), retention);
        let mut sim = Simulator::new(SimConfig::with_rows(16), Vrl::new(bins, vec![3; 16]));
        sim.run_observed(std::iter::empty(), 4096.0, &mut checker);
        assert!(
            checker.violations().is_empty(),
            "{:?}",
            checker.violations()
        );
    }

    #[test]
    fn reckless_mprsf_is_caught() {
        // Retention barely above the bin period: sustained partials must
        // cross the threshold — the checker has to catch it.
        let (bins, retention) = setup(280.0, 4);
        let mut checker =
            IntegrityChecker::new(physics(), TimingParams::paper_default(), retention);
        let mut sim = Simulator::new(SimConfig::with_rows(4), Vrl::new(bins, vec![3; 4]));
        sim.run_observed(std::iter::empty(), 4096.0, &mut checker);
        assert!(!checker.violations().is_empty(), "expected violations");
    }

    #[test]
    fn charges_decay_between_events() {
        let (_, retention) = setup(256.0, 1);
        let timing = TimingParams::paper_default();
        let mut checker = IntegrityChecker::new(physics(), timing, retention);
        // Leak a full period: full (0.95) decays to exactly the loss
        // threshold at retention = period.
        checker.on_refresh(0, RefreshLatency::Full, 0);
        let q = checker.leak_to(0, timing.ms_to_cycles(256.0));
        assert!((q - 0.62).abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn activation_fully_restores() {
        let (_, retention) = setup(300.0, 1);
        let timing = TimingParams::paper_default();
        let mut checker = IntegrityChecker::new(physics(), timing, retention);
        checker.on_activate(0, timing.ms_to_cycles(100.0));
        assert_eq!(checker.charge_of(0), 0.95);
    }

    #[test]
    fn activation_and_refresh_in_the_same_cycle() {
        // The simulator services an access at cycle t and then executes
        // a refresh due at t: the activation restores fully, and the
        // zero-elapsed refresh must neither decay the charge nor record
        // a violation.
        let (_, retention) = setup(300.0, 1);
        let timing = TimingParams::paper_default();
        let mut checker = IntegrityChecker::new(physics(), timing, retention);
        let t = timing.ms_to_cycles(200.0);
        checker.on_activate(0, t);
        checker.on_refresh(0, RefreshLatency::Partial, t);
        assert!(checker.violations().is_empty());
        // A partial refresh on a full row closes a zero deficit.
        assert!((checker.charge_of(0) - 0.95).abs() < 1e-12);
        checker.on_refresh(0, RefreshLatency::Full, t);
        assert_eq!(checker.charge_of(0), 0.95);
    }

    #[test]
    fn retention_change_hook_matches_update_retention() {
        let (_, retention) = setup(256.0, 2);
        let timing = TimingParams::paper_default();
        let mut a = IntegrityChecker::new(physics(), timing, retention.clone());
        let mut b = IntegrityChecker::new(physics(), timing, retention);
        let mid = timing.ms_to_cycles(128.0);
        a.update_retention(0, 80.0, mid);
        SimObserver::on_retention_change(&mut b, 0, 80.0, mid);
        let end = timing.ms_to_cycles(256.0);
        a.on_refresh(0, RefreshLatency::Full, end);
        b.on_refresh(0, RefreshLatency::Full, end);
        assert_eq!(a.violations().len(), b.violations().len());
        assert_eq!(a.charge_of(0), b.charge_of(0));
    }

    #[test]
    fn the_deadline_lies_just_before_the_exact_crossing() {
        let timing = TimingParams::paper_default();
        let floor: f64 = 0.62 - 1e-9;
        for (i, retention) in [20.0, 64.0, 255.5, 1500.0].into_iter().enumerate() {
            for q in [0.95, 0.8, 0.7, floor * (1.0 + 1e-5)] {
                let mut tracker = ChargeTracker::new(physics(), timing, vec![retention]);
                tracker.set_charge(0, q);
                let safe = tracker.safe_elapsed(0);
                assert!(safe > 0, "case {i}: q = {q}");
                // One cycle before the deadline the exact path clears
                // the floor; a 1e-6 band later it need not.
                let exact = |elapsed: u64| {
                    let mut t = tracker.clone();
                    t.settle(0, elapsed)
                };
                assert!(exact(safe - 1) >= floor, "case {i}: q = {q}");
                let slack = (retention * 1e6 * 2e-6 / (0.95f64 / 0.62).ln()) as u64 + 2;
                assert!(
                    exact(safe + slack) < floor * (1.0 + 1e-5),
                    "case {i}: q = {q}"
                );
            }
        }
    }

    #[test]
    fn charges_inside_the_band_always_take_the_exact_path() {
        let timing = TimingParams::paper_default();
        let floor: f64 = 0.62 - 1e-9;
        let mut tracker = ChargeTracker::new(physics(), timing, vec![300.0]);
        for q in [
            floor,
            floor * (1.0 + 5e-7),
            0.5,
            f64::from_bits(floor.to_bits() + 3),
        ] {
            tracker.set_charge(0, q);
            assert_eq!(tracker.safe_elapsed(0), 0, "q = {q}");
            // Not even a zero-elapsed activation skips the leak.
            assert!(!tracker.activate_if_safe(0, 0));
        }
    }

    #[test]
    fn a_sub_threshold_row_is_flagged_at_zero_elapsed_time() {
        let (_, retention) = setup(300.0, 1);
        let timing = TimingParams::paper_default();
        let mut checker = IntegrityChecker::new(physics(), timing, retention);
        // A partial refresh closes too little of a long-neglected row's
        // deficit: it stays below threshold.
        let t = timing.ms_to_cycles(1200.0);
        checker.on_refresh(0, RefreshLatency::Partial, t);
        assert!(checker.charge_of(0) < 0.62);
        let found = checker.violations().len();
        checker.on_activate(0, t);
        assert_eq!(checker.violations().len(), found + 1);
        assert_eq!(checker.violations()[found].cycle, t);
        // The activation restored the row: a second one in the same cycle
        // takes the deadline and finds nothing.
        assert!(checker.tracker.safe_elapsed(0) > 0);
        checker.on_activate(0, t);
        assert_eq!(checker.violations().len(), found + 1);
    }

    #[test]
    fn a_full_row_keeps_its_deadline_until_its_retention_changes() {
        let (_, retention) = setup(300.0, 2);
        let timing = TimingParams::paper_default();
        let mut checker = IntegrityChecker::new(physics(), timing, retention);
        let full_safe = checker.tracker.safe_elapsed(0);
        // A full row at 300 ms retention reaches the threshold after
        // 300 ms; the deadline sits a hair before.
        assert!(full_safe < timing.ms_to_cycles(300.0));
        assert!(full_safe > timing.ms_to_cycles(299.99));
        checker.on_activate(0, 1000);
        assert_eq!(checker.tracker.safe_elapsed(0), full_safe);
        checker.update_retention(0, 150.0, 2000);
        checker.on_activate(0, 3000);
        let halved = checker.tracker.safe_elapsed(0);
        assert!(
            halved.abs_diff(full_safe / 2) <= 1,
            "{halved} vs {full_safe}"
        );
        // The untouched row kept its own.
        assert_eq!(checker.tracker.safe_elapsed(1), full_safe);
    }

    #[test]
    fn violation_records_details() {
        let (_, retention) = setup(100.0, 1);
        let timing = TimingParams::paper_default();
        let mut checker = IntegrityChecker::new(physics(), timing, retention);
        // Leak for 400 ms without refresh: guaranteed below threshold.
        let q = checker.leak_to(0, timing.ms_to_cycles(400.0));
        assert!(q < 0.62);
        let v = checker.violations()[0];
        assert_eq!(v.row, 0);
        assert!(v.charge < 0.62);
    }
}
