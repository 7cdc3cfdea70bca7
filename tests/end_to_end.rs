//! End-to-end integration: trace generation → plan → simulator →
//! statistics → power, across every crate in the workspace.

use vrl::core::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl::core::overhead;
use vrl::core::Engine;

fn experiment() -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: 1024,
        duration_ms: 1024.0,
        ..Default::default()
    })
}

#[test]
fn policy_ordering_holds_end_to_end() {
    let e = experiment();
    let auto = e.run_policy(PolicyKind::Auto, "canneal").expect("known");
    let raidr = e.run_policy(PolicyKind::Raidr, "canneal").expect("known");
    let vrl = e.run_policy(PolicyKind::Vrl, "canneal").expect("known");
    let vrl_access = e
        .run_policy(PolicyKind::VrlAccess, "canneal")
        .expect("known");
    assert!(
        raidr.refresh_busy_cycles < auto.refresh_busy_cycles,
        "RAIDR < auto"
    );
    assert!(
        vrl.refresh_busy_cycles < raidr.refresh_busy_cycles,
        "VRL < RAIDR"
    );
    assert!(
        vrl_access.refresh_busy_cycles <= vrl.refresh_busy_cycles,
        "VRL-Access <= VRL"
    );
}

#[test]
fn all_policies_are_integrity_safe_under_traffic() {
    let e = experiment();
    for kind in [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess] {
        let mut checker = e.integrity_checker(e.profiled_retention());
        let trace = e.trace("streamcluster").expect("known");
        e.run_policy_with(kind, trace, &mut checker);
        let violations = checker.violations().len();
        assert_eq!(violations, 0, "{} violated data integrity", kind.name());
    }
}

#[test]
fn scheduled_parallelism_is_integrity_clean() {
    let e = Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 256.0,
        ..Default::default()
    });
    let sched = e.sched_config(4).expect("4 banks");
    let mut checker = e.integrity_checker(e.profiled_retention());
    let trace = e.trace("ferret").expect("known");
    let outcome = e
        .run(
            &Engine::Sched(sched),
            PolicyKind::VrlAccess,
            trace,
            0,
            &mut checker,
            |_| {},
        )
        .expect("known");
    let violations = checker.violations().len();
    assert_eq!(violations, 0, "parallelized refreshes must stay sound");
    assert!(outcome.sim_stats().total_refreshes() > 0);
}

#[test]
fn simulator_matches_closed_form_accounting() {
    // The simulator (with no trace) must agree with the closed-form
    // overhead model within the staggered-start transient.
    let e = Experiment::new(ExperimentConfig {
        rows: 1024,
        duration_ms: 4096.0,
        ..Default::default()
    });
    let raidr_sim = e
        .run_policy_with(
            PolicyKind::Raidr,
            std::iter::empty(),
            &mut vrl::dram::sim::NullObserver,
        )
        .refresh_busy_cycles as f64;
    let raidr_model = overhead::raidr_cycles(e.plan(), 4096.0, 19);
    let rel = (raidr_sim - raidr_model).abs() / raidr_model;
    assert!(
        rel < 0.02,
        "simulator {raidr_sim} vs model {raidr_model} ({rel:.3})"
    );

    let vrl_sim = e
        .run_policy_with(
            PolicyKind::Vrl,
            std::iter::empty(),
            &mut vrl::dram::sim::NullObserver,
        )
        .refresh_busy_cycles as f64;
    let vrl_model = overhead::vrl_cycles(e.plan(), 4096.0, 19, 11);
    let rel = (vrl_sim - vrl_model).abs() / vrl_model;
    // VRL has a partial-heavy transient (counters start at 0).
    assert!(
        rel < 0.05,
        "simulator {vrl_sim} vs model {vrl_model} ({rel:.3})"
    );
}

#[test]
fn vrl_is_application_independent_but_vrl_access_is_not() {
    let e = experiment();
    let vrl_a = e.run_policy(PolicyKind::Vrl, "swaptions").expect("known");
    let vrl_b = e.run_policy(PolicyKind::Vrl, "bgsave").expect("known");
    assert_eq!(
        vrl_a.refresh_busy_cycles, vrl_b.refresh_busy_cycles,
        "plain VRL must not depend on the trace"
    );
    let va_a = e
        .run_policy(PolicyKind::VrlAccess, "swaptions")
        .expect("known");
    let va_b = e
        .run_policy(PolicyKind::VrlAccess, "bgsave")
        .expect("known");
    assert!(
        va_b.refresh_busy_cycles < va_a.refresh_busy_cycles,
        "bgsave's full-bank sweep must help VRL-Access more than swaptions"
    );
}

#[test]
fn refresh_power_ordering_matches_cycle_ordering() {
    let e = experiment();
    let power = *e.power();
    let raidr = power.breakdown(&e.run_policy(PolicyKind::Raidr, "vips").expect("known"));
    let vrl = power.breakdown(&e.run_policy(PolicyKind::Vrl, "vips").expect("known"));
    let va = power.breakdown(&e.run_policy(PolicyKind::VrlAccess, "vips").expect("known"));
    assert!(vrl.refresh_mw < raidr.refresh_mw);
    assert!(va.refresh_mw <= vrl.refresh_mw);
    // Energy saving is smaller than the cycle saving (fixed charge term).
    let cycle_saving = 1.0
        - e.run_policy(PolicyKind::Vrl, "vips")
            .expect("known")
            .refresh_busy_cycles as f64
            / e.run_policy(PolicyKind::Raidr, "vips")
                .expect("known")
                .refresh_busy_cycles as f64;
    let energy_saving = 1.0 - vrl.refresh_mw / raidr.refresh_mw;
    assert!(
        energy_saving < cycle_saving,
        "{energy_saving} vs {cycle_saving}"
    );
}

#[test]
fn headline_vrl_reduction_is_near_the_papers() {
    // The paper's Figure 4: VRL reduces refresh overhead by 23% vs
    // RAIDR, independent of the application. Allow a band for the
    // synthetic profile.
    let e = Experiment::new(ExperimentConfig {
        rows: 4096,
        duration_ms: 2048.0,
        ..Default::default()
    });
    let row = e.compare("blackscholes").expect("known");
    let reduction = (1.0 - row.vrl_normalized) * 100.0;
    assert!(
        (17.0..=30.0).contains(&reduction),
        "VRL reduction {reduction:.1}% out of the paper's band (23%)"
    );
}
