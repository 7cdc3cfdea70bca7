//! Fault-injection end-to-end tests: the unguarded policies lose data
//! under profile staleness, the runtime guard does not — and its
//! degradation ladder is monotone. A plan that pins VRT rows to their
//! weak-state retention does not lose data either, at a refresh cost.

use proptest::prelude::*;

use vrl::core::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl::dram::fault::{FaultConfig, FaultInjector, VrtFault};
use vrl::dram::guard::{Guard, GuardConfig};
use vrl::dram::integrity::LinearPhysics;
use vrl::dram::policy::{AdaptivePolicy, DegradeAction, RefreshPolicy, Vrl};
use vrl::dram::sim::{SimConfig, Simulator};
use vrl::dram::TimingParams;
use vrl::retention::binning::BinningTable;
use vrl::retention::profile::BankProfile;

fn experiment() -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 1024.0,
        ..Default::default()
    })
}

/// Without the guard, the default fault scenario (profiler optimism +
/// VRT) makes VRL silently cross the sensing threshold.
#[test]
fn unguarded_vrl_loses_data_under_default_faults() {
    let e = experiment();
    let faults = FaultConfig::default_scenario(42);
    let out = e
        .run_faulted(PolicyKind::Vrl, "ferret", &faults, None)
        .expect("known");
    assert!(out.guard.is_none());
    assert!(
        out.violations >= 1,
        "expected silent data loss, got {} violations ({:?})",
        out.violations,
        out.faults
    );
}

/// The guard turns every excursion into a corrected error: zero
/// uncorrected losses, and the refresh-busy overhead of the degraded
/// rows stays within 10% of the fault-free VRL run.
#[test]
fn guarded_vrl_is_lossless_with_bounded_overhead() {
    let e = experiment();
    let faults = FaultConfig::default_scenario(42);
    let fault_free = e.run_policy(PolicyKind::Vrl, "ferret").expect("known");
    let out = e
        .run_faulted(
            PolicyKind::Vrl,
            "ferret",
            &faults,
            Some(&GuardConfig::default()),
        )
        .expect("known");
    let guard = out.guard.expect("guard stats");
    assert_eq!(guard.uncorrected, 0, "guard lost data: {guard:?}");
    assert_eq!(out.stats.uncorrected_errors, 0);
    assert!(
        guard.corrected > 0,
        "the fault scenario should trip the guard"
    );
    let budget = fault_free.refresh_busy_cycles as f64 * 1.10;
    assert!(
        (out.stats.refresh_busy_cycles as f64) <= budget,
        "refresh-busy {} exceeds 110% of fault-free {}",
        out.stats.refresh_busy_cycles,
        fault_free.refresh_busy_cycles
    );
}

/// A VRT-only scenario: a quarter of the rows toggle, often, to 60 % of
/// their profiled retention. No profiler optimism, so every row outside
/// the VRT set keeps exactly its profiled retention.
fn vrt_only_faults() -> FaultConfig {
    FaultConfig {
        seed: 7,
        vrt: Some(VrtFault {
            fraction: 0.25,
            weak_factor: 0.6,
            toggle_probability: 0.4,
            step_ms: 64.0,
        }),
        ..Default::default()
    }
}

/// VRL, like RAIDR, plans on a static profile. Unguarded, a plan built on
/// the profiled (strong-state) retention loses data once VRT rows
/// collapse to their weak state.
#[test]
fn a_strong_state_plan_loses_data_under_vrt() {
    let e = experiment();
    let out = e
        .run_faulted(PolicyKind::Vrl, "ferret", &vrt_only_faults(), None)
        .expect("known");
    assert_eq!(out.faults.optimistic_rows, 0);
    assert!(
        out.faults.vrt_toggles > 0,
        "VRT must toggle: {:?}",
        out.faults
    );
    assert!(
        out.violations > 0,
        "a strong-state plan must lose data once cells collapse: {:?}",
        out.faults
    );
}

/// The defensive plan: every row the injector gave a VRT process is
/// pinned to its weak-state retention before planning. Under the same
/// injected truth it records no violation, and pays for it in refresh-busy
/// cycles. The run is assembled as the faulted engine does, but with the
/// plan decoupled from the profile the injector's truth is built from.
#[test]
fn a_weak_state_plan_survives_vrt_at_a_refresh_cost() {
    let e = experiment();
    let faults = vrt_only_faults();
    let weak_factor = faults.vrt.expect("VRT scenario").weak_factor;
    let profiled = e.profiled_retention();
    let injector = FaultInjector::new(faults, &profiled, TimingParams::paper_default());
    let mut pinned = profiled.clone();
    for row in injector.vrt_rows() {
        pinned[row as usize] *= weak_factor;
    }
    // No refresh bin is shorter than 64 ms, so a weaker state could not
    // be saved by any plan.
    assert!(
        pinned.iter().all(|&t| t >= 64.0),
        "a weak state under 64 ms"
    );
    let plan = e
        .config()
        .build_plan(&BankProfile::from_rows(pinned, e.profile().cells_per_row()));
    let mut checker = e.integrity_checker(injector.true_retention());
    let mut sim = Simulator::new(SimConfig::with_rows(e.config().rows), plan.vrl());
    sim.set_fault_injector(injector);
    let trace = e.trace("ferret").expect("known");
    let aware = sim.run_observed(trace, e.config().duration_ms, &mut checker);
    let toggles = sim.fault_injector().expect("injector").stats().vrt_toggles;
    assert!(toggles > 0, "VRT must toggle");
    assert_eq!(
        checker.violations().len(),
        0,
        "the weak-state plan lost data"
    );

    let naive = e
        .run_faulted(PolicyKind::Vrl, "ferret", &faults, None)
        .expect("known");
    assert_eq!(naive.faults.vrt_toggles, toggles, "same injected truth");
    assert!(
        aware.refresh_busy_cycles > naive.stats.refresh_busy_cycles,
        "the weak-state plan must refresh more: {} vs {}",
        aware.refresh_busy_cycles,
        naive.stats.refresh_busy_cycles
    );
}

/// Deterministic ladder recovery: a recklessly-optimistic MPRSF (the
/// profiler-optimism fault in its purest form) is corrected and degraded
/// until the row is safe, after which no further errors occur.
#[test]
fn guard_degrades_a_reckless_row_until_it_is_safe() {
    let rows = 4;
    let retention = 280.0; // bin 256 ms: partials alone cross the threshold
    let timing = TimingParams::paper_default();
    let profile = BankProfile::from_rows(std::iter::repeat_n(retention, rows), 32);
    let bins = BinningTable::from_profile(&profile);
    let physics = LinearPhysics {
        full: 0.95,
        partial_gain: 0.4,
        threshold: 0.62,
    };
    let config = GuardConfig {
        margin: 0.12,
        scrub_interval_ms: 0.0,
    };
    let mut guard = Guard::new(physics, timing, vec![retention; rows], config);
    let mut sim = Simulator::new(
        SimConfig::with_rows(rows as u32),
        Vrl::new(bins, vec![3; rows]),
    );
    let stats = sim.run_guarded(std::iter::empty(), 4096.0, &mut guard);
    let gs = guard.stats();
    assert_eq!(gs.uncorrected, 0, "{gs:?}");
    // The ladder converges in exactly two corrected steps per row
    // (MPRSF 3 → 1 → 0), then the all-full schedule is safe forever.
    assert_eq!(gs.corrected, 2 * rows as u64, "{gs:?}");
    assert_eq!(gs.mprsf_demotions, 2 * rows as u64);
    assert_eq!(gs.bin_demotions, 0);
    assert_eq!(stats.uncorrected_errors, 0);
}

/// The same reckless configuration without a guard is a data-loss
/// machine — the contrast that justifies the scrub/ECC overhead.
#[test]
fn the_same_reckless_row_unguarded_keeps_losing_data() {
    let rows = 4;
    let retention = 280.0;
    let timing = TimingParams::paper_default();
    let profile = BankProfile::from_rows(std::iter::repeat_n(retention, rows), 32);
    let bins = BinningTable::from_profile(&profile);
    let physics = LinearPhysics {
        full: 0.95,
        partial_gain: 0.4,
        threshold: 0.62,
    };
    let mut checker =
        vrl::dram::integrity::IntegrityChecker::new(physics, timing, vec![retention; rows]);
    let mut sim = Simulator::new(
        SimConfig::with_rows(rows as u32),
        Vrl::new(bins, vec![3; rows]),
    );
    sim.run_observed(std::iter::empty(), 4096.0, &mut checker);
    assert!(
        checker.violations().len() > rows,
        "{:?}",
        checker.violations().len()
    );
}

/// Satellite: once the guard demotes a row, continued VRT toggling never
/// drives it below threshold again — the demoted bin covers the weak
/// state, so the error stream dries up after a bounded transient.
/// (The bound is two steps per row, not one: a bin demotion cannot recall
/// the row's already-queued refresh deadline, so one more correction can
/// land before the shorter period takes hold.)
#[test]
fn demoted_rows_stay_safe_under_continued_vrt_toggling() {
    let rows = 4;
    let profiled = 300.0; // bin 256 ms; weak state 0.7 × 300 = 210 ms < 256
    let timing = TimingParams::paper_default();
    let profile = BankProfile::from_rows(std::iter::repeat_n(profiled, rows), 32);
    let bins = BinningTable::from_profile(&profile);
    let faults = FaultConfig {
        seed: 3,
        vrt: Some(VrtFault {
            fraction: 1.0,
            weak_factor: 0.7,
            toggle_probability: 0.5,
            step_ms: 64.0,
        }),
        ..Default::default()
    };
    let injector = FaultInjector::new(faults, &vec![profiled; rows], timing);
    let physics = LinearPhysics {
        full: 0.95,
        partial_gain: 0.4,
        threshold: 0.62,
    };
    let config = GuardConfig {
        margin: 0.09,
        scrub_interval_ms: 0.0,
    };
    let mut guard = Guard::new(physics, timing, injector.true_retention(), config);
    // MPRSF 0 everywhere: the ladder's first step is the bin demotion.
    let mut sim = Simulator::new(
        SimConfig::with_rows(rows as u32),
        Vrl::new(bins, vec![0; rows]),
    );
    sim.set_fault_injector(injector);
    sim.run_guarded(std::iter::empty(), 8192.0, &mut guard);
    let toggles = sim.fault_injector().expect("injector").stats().vrt_toggles;
    let gs = guard.stats();
    assert!(toggles > rows as u64, "VRT must keep toggling: {toggles}");
    assert_eq!(gs.uncorrected, 0, "{gs:?}");
    assert!(gs.corrected >= 1, "weak states must trip the guard: {gs:?}");
    assert_eq!(gs.mprsf_demotions, 0);
    // The 192 ms bin covers the 210 ms weak state, so after at most two
    // corrected steps per row (one overshoot from the queued deadline) a
    // demoted row never crosses the threshold again — over ~32 further
    // periods of continued toggling the error count stays frozen.
    assert_eq!(gs.corrected, gs.bin_demotions, "{gs:?}");
    assert!(gs.bin_demotions <= 2 * rows as u64, "{gs:?}");
    assert_eq!(gs.at_floor_errors, 0);
}

/// MPRSF counters saturate at `2^nbits − 1` and the scheduler honors the
/// cap: a saturated row issues exactly `cap` partials between fulls.
#[test]
fn saturated_mprsf_caps_the_partial_run_length() {
    use vrl::core::mprsf::Mprsf;
    let nbits = 2;
    let cap = (1u8 << nbits) - 1;
    assert_eq!(Mprsf::Finite(200).saturate(nbits), cap);
    assert_eq!(Mprsf::Unbounded.saturate(nbits), cap);

    let profile = BankProfile::from_rows(std::iter::repeat_n(1500.0, 1), 32);
    let bins = BinningTable::from_profile(&profile);
    let mut vrl = Vrl::new(bins, vec![cap]);
    let mut partial_run = 0u8;
    let mut longest = 0u8;
    for _ in 0..32 {
        match vrl.refresh_kind(0) {
            vrl::dram::timing::RefreshLatency::Partial => partial_run += 1,
            vrl::dram::timing::RefreshLatency::Full => {
                longest = longest.max(partial_run);
                partial_run = 0;
            }
        }
    }
    assert_eq!(longest, cap);
}

/// Satellite: every degradation-ladder step surfaces as a `GuardDegrade`
/// event on the observability stream, and the recorded per-row sequence
/// is monotone (severity ranks never decrease) — the event-level twin of
/// the state-level proptest below.
#[test]
fn guard_degrade_events_trace_a_monotone_ladder() {
    use std::collections::BTreeMap;
    use vrl::obs::{EventKind, Recorder};

    let rows = 4;
    let retention = 280.0;
    let timing = TimingParams::paper_default();
    let profile = BankProfile::from_rows(std::iter::repeat_n(retention, rows), 32);
    let bins = BinningTable::from_profile(&profile);
    let physics = LinearPhysics {
        full: 0.95,
        partial_gain: 0.4,
        threshold: 0.62,
    };
    let config = GuardConfig {
        margin: 0.12,
        scrub_interval_ms: 0.0,
    };
    let mut guard = Guard::new(physics, timing, vec![retention; rows], config);
    let mut sim = Simulator::new(
        SimConfig::with_rows(rows as u32),
        Vrl::new(bins.clone(), vec![3; rows]),
    );
    let mut recorder = Recorder::single_bank("reckless", "vrl");
    let stats = sim.run_guarded_observed(std::iter::empty(), 4096.0, &mut guard, &mut recorder);
    let gs = guard.stats();
    let stream = recorder.finish();

    // Recording must not perturb the guarded run.
    let mut plain_guard = Guard::new(physics, timing, vec![retention; rows], config);
    let mut plain_sim = Simulator::new(
        SimConfig::with_rows(rows as u32),
        Vrl::new(bins, vec![3; rows]),
    );
    let plain_stats = plain_sim.run_guarded(std::iter::empty(), 4096.0, &mut plain_guard);
    assert_eq!(stats, plain_stats);

    // One GuardDegrade event per applied ladder step, in cycle order.
    let mut per_row: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for ev in &stream.events {
        if let EventKind::GuardDegrade(step) = ev.kind {
            per_row
                .entry(ev.row)
                .or_default()
                .push((ev.cycle, step.severity_rank()));
        }
    }
    let total: usize = per_row.values().map(Vec::len).sum();
    assert_eq!(
        total as u64,
        gs.mprsf_demotions + gs.bin_demotions,
        "every ladder step must be traced: {gs:?}"
    );
    assert_eq!(per_row.len(), rows, "every row degrades in this scenario");
    for (row, steps) in &per_row {
        assert_eq!(steps.len(), 2, "row {row}: MPRSF 3 -> 1 -> 0");
        for pair in steps.windows(2) {
            assert!(
                pair[0].0 <= pair[1].0,
                "row {row}: events out of cycle order"
            );
            assert!(
                pair[0].1 <= pair[1].1,
                "row {row}: ladder went backwards: {steps:?}"
            );
        }
    }
}

fn ladder_state(policy: &Vrl, row: u32) -> (f64, u8) {
    (policy.period_ms(row), policy.mprsf(row))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The degradation ladder is monotone: across any sequence of
    /// degrade calls, a row never regains a longer refresh period, and
    /// at a fixed period never regains a larger MPRSF (no promotion
    /// without a full offline re-profile).
    #[test]
    fn degradation_ladder_is_monotone(
        retentions in prop::collection::vec(70.0f64..2000.0, 1..16),
        picks in prop::collection::vec(0usize..16, 1..48),
        mprsf0 in 0u8..=3u8,
    ) {
        let profile = BankProfile::from_rows(retentions.clone(), 32);
        let bins = BinningTable::from_profile(&profile);
        let n = retentions.len();
        let mut policy = Vrl::new(bins, vec![mprsf0; n]);
        for pick in picks {
            let row = (pick % n) as u32;
            let before = ladder_state(&policy, row);
            let action = policy.degrade(row);
            let after = ladder_state(&policy, row);
            prop_assert!(after.0 <= before.0, "period grew: {before:?} -> {after:?}");
            if (after.0 - before.0).abs() < f64::EPSILON {
                prop_assert!(after.1 <= before.1, "mprsf grew: {before:?} -> {after:?}");
            } else {
                // A re-bin only happens once MPRSF has hit 0.
                prop_assert_eq!(before.1, 0);
                prop_assert_eq!(after.1, 0);
            }
            if action == DegradeAction::AtFloor {
                prop_assert_eq!(after, before, "AtFloor must not change state");
                prop_assert!((after.0 - 64.0).abs() < f64::EPSILON);
                prop_assert_eq!(after.1, 0);
            }
            // Other rows are untouched.
            for other in 0..n as u32 {
                if other != row {
                    let _ = ladder_state(&policy, other);
                }
            }
        }
    }
}
