//! Variable-retention-time (VRT) hazard analysis and the VRT-aware plan.
//!
//! VRL-DRAM (like RAIDR) assumes a *static* retention profile, but real
//! cells occasionally toggle into a weaker retention state (the hazard
//! AVATAR \[33\] addresses). This module quantifies the exposure and
//! provides the defensive plan:
//!
//! * [`VrtScenario`] — a population of two-state VRT processes driving
//!   time-varying retention during a simulation,
//! * [`run_under_vrt`] — replays a refresh plan against the scenario with
//!   the integrity checker tracking the *actual* (toggling) retention,
//! * [`RefreshPlan`] built from [`worst_case_profile`] — the VRT-aware
//!   plan that assumes every suspect row sits in its weak state.
//!
//! The test suite demonstrates the paper-level takeaway: a plan built on
//! observed (strong-state) retention can violate integrity once cells
//! toggle, while the worst-case plan stays safe at a modest overhead
//! cost.

use vrl_circuit::model::AnalyticalModel;
use vrl_dram_sim::integrity::IntegrityChecker;
use vrl_dram_sim::timing::TimingParams;
use vrl_retention::profile::BankProfile;
use vrl_retention::vrt::VrtProcess;

use crate::engine::simulator;
use crate::physics::ModelPhysics;
use crate::plan::RefreshPlan;

/// A VRT scenario: one process per row (rows without a process entry are
/// stable).
#[derive(Debug, Clone)]
pub struct VrtScenario {
    /// Per-row VRT processes; `None` = stable row.
    pub processes: Vec<Option<VrtProcess>>,
    /// Interval between VRT observation windows (ms).
    pub step_ms: f64,
}

impl VrtScenario {
    /// Builds a scenario where every `stride`-th row of `profile` is a
    /// VRT cell whose weak-state retention is `weak_factor` of its
    /// strong-state retention.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < weak_factor < 1`, `stride > 0`, and
    /// `step_ms > 0`.
    pub fn sparse(
        profile: &BankProfile,
        stride: usize,
        weak_factor: f64,
        toggle_probability: f64,
        step_ms: f64,
        seed: u64,
    ) -> Self {
        assert!(
            weak_factor > 0.0 && weak_factor < 1.0,
            "weak factor in (0,1)"
        );
        assert!(stride > 0, "stride must be positive");
        assert!(step_ms > 0.0, "step must be positive");
        let processes = profile
            .iter()
            .enumerate()
            .map(|(i, row)| {
                // Weak states below the worst-case refresh period (64 ms)
                // cannot be saved by any refresh schedule — real systems
                // handle those cells with ECC or remapping, so the
                // scenario floors the weak state there. Rows too weak to
                // have a meaningful two-state process stay stable.
                let weak = (row.weakest_ms * weak_factor).max(64.0);
                if i % stride == 0 && weak < row.weakest_ms {
                    Some(VrtProcess::new(
                        row.weakest_ms,
                        weak,
                        toggle_probability,
                        seed.wrapping_add(i as u64),
                    ))
                } else {
                    None
                }
            })
            .collect();
        VrtScenario { processes, step_ms }
    }

    /// Number of VRT-affected rows.
    pub fn affected_rows(&self) -> usize {
        self.processes.iter().filter(|p| p.is_some()).count()
    }
}

/// The ground-truth profile a VRT-aware planner must assume: every VRT
/// row pinned to its weak-state retention.
pub fn worst_case_profile(profile: &BankProfile, scenario: &VrtScenario) -> BankProfile {
    let rows = profile
        .iter()
        .zip(&scenario.processes)
        .map(|(row, process)| match process {
            Some(p) => p.worst_case_ms(),
            None => row.weakest_ms,
        });
    BankProfile::from_rows(rows, profile.cells_per_row())
}

/// Result of a run under VRT.
#[derive(Debug, Clone, PartialEq)]
pub struct VrtRunResult {
    /// Refresh-busy cycles of the run.
    pub refresh_busy_cycles: u64,
    /// Integrity violations observed.
    pub violations: usize,
    /// VRT state toggles that occurred during the run.
    pub toggles: usize,
}

/// Replays `plan` for `duration_ms` (no traffic) while the scenario's VRT
/// processes toggle row retentions under the integrity checker.
pub fn run_under_vrt(
    model: &AnalyticalModel,
    plan: &RefreshPlan,
    profile: &BankProfile,
    scenario: &VrtScenario,
    duration_ms: f64,
) -> VrtRunResult {
    let mut scenario = scenario.clone();
    let timing = TimingParams::paper_default();
    let retention: Vec<f64> = profile
        .iter()
        .zip(&scenario.processes)
        .map(|(row, p)| p.as_ref().map_or(row.weakest_ms, |p| p.retention_ms()))
        .collect();
    let mut checker = IntegrityChecker::new(ModelPhysics::new(model), timing, retention);
    let mut sim = simulator(profile.row_count() as u32, plan.vrl());

    let mut refresh_busy = 0u64;
    let mut toggles = 0usize;
    let steps = (duration_ms / scenario.step_ms).ceil() as usize;
    for step in 1..=steps {
        let until_ms = (step as f64 * scenario.step_ms).min(duration_ms);
        let stats = sim.run_observed(std::iter::empty(), until_ms, &mut checker);
        refresh_busy = stats.refresh_busy_cycles;
        // Advance VRT processes and apply the new retentions.
        let cycle = timing.ms_to_cycles(until_ms);
        for (row, process) in scenario.processes.iter_mut().enumerate() {
            if let Some(p) = process {
                let was_weak = p.is_weak();
                p.step();
                if p.is_weak() != was_weak {
                    toggles += 1;
                    checker.update_retention(row as u32, p.retention_ms(), cycle);
                }
            }
        }
    }
    VrtRunResult {
        refresh_busy_cycles: refresh_busy,
        violations: checker.violations().len(),
        toggles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrl_circuit::tech::Technology;
    use vrl_retention::distribution::RetentionDistribution;

    fn setup() -> (AnalyticalModel, BankProfile, VrtScenario) {
        let model = AnalyticalModel::new(Technology::n90());
        let profile = BankProfile::generate(&RetentionDistribution::liu_et_al(), 128, 32, 3);
        // Aggressive VRT: every 4th row can collapse to 15% of its
        // retention (floored at 64 ms), toggling often.
        let scenario = VrtScenario::sparse(&profile, 4, 0.15, 0.4, 64.0, 7);
        (model, profile, scenario)
    }

    #[test]
    fn scenario_counts_affected_rows() {
        let (_, profile, scenario) = setup();
        assert!(scenario.affected_rows() > 16, "most 4th rows are affected");
        assert!(scenario.affected_rows() <= 32);
        assert_eq!(scenario.processes.len(), profile.row_count());
    }

    #[test]
    fn worst_case_profile_is_conservative() {
        let (_, profile, scenario) = setup();
        let worst = worst_case_profile(&profile, &scenario);
        for (a, b) in profile.iter().zip(worst.iter()) {
            assert!(b.weakest_ms <= a.weakest_ms);
        }
    }

    #[test]
    fn naive_plan_violates_under_vrt() {
        let (model, profile, scenario) = setup();
        let naive = RefreshPlan::build(&model, &profile, 2, 0.0);
        let result = run_under_vrt(&model, &naive, &profile, &scenario, 2048.0);
        assert!(result.toggles > 0, "scenario must actually toggle");
        assert!(
            result.violations > 0,
            "a strong-state plan must lose data once cells collapse"
        );
    }

    #[test]
    fn vrt_aware_plan_stays_safe() {
        let (model, profile, scenario) = setup();
        let worst = worst_case_profile(&profile, &scenario);
        let aware = RefreshPlan::build(&model, &worst, 2, 0.0);
        let result = run_under_vrt(&model, &aware, &profile, &scenario, 2048.0);
        assert_eq!(result.violations, 0, "worst-case planning must be safe");
    }

    #[test]
    fn safety_costs_refresh_cycles() {
        let (model, profile, scenario) = setup();
        let naive = RefreshPlan::build(&model, &profile, 2, 0.0);
        let aware = RefreshPlan::build(&model, &worst_case_profile(&profile, &scenario), 2, 0.0);
        let n = run_under_vrt(&model, &naive, &profile, &scenario, 1024.0);
        let a = run_under_vrt(&model, &aware, &profile, &scenario, 1024.0);
        assert!(
            a.refresh_busy_cycles > n.refresh_busy_cycles,
            "the VRT-aware plan must refresh more: {} vs {}",
            a.refresh_busy_cycles,
            n.refresh_busy_cycles
        );
    }
}
