//! Observability-layer end-to-end tests: the `NopObserver` path is
//! bit-identical to the recorded path on every front end, and the Chrome
//! `trace_event` export round-trips through the schema validator with a
//! rich event vocabulary.

use vrl::core::experiment::{sched_metrics, Experiment, ExperimentConfig, PolicyKind};
use vrl::core::{Engine, Outcome};
use vrl::obs::{
    chrome_trace_json, merge_streams, validate_chrome_trace, EventKind, EventStream, NopObserver,
};

fn experiment() -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 256.0,
        ..Default::default()
    })
}

/// Runs `policy` on `engine` over `benchmark` while recording its
/// event stream.
fn traced(
    e: &Experiment,
    engine: &Engine,
    policy: PolicyKind,
    benchmark: &str,
) -> (Outcome, EventStream) {
    let mut recorder = engine.recorder(benchmark, policy);
    let trace = e.trace(benchmark).expect("known");
    let outcome = e.run(engine, policy, trace, 0, &mut recorder, |_| {});
    (outcome.expect("runs"), recorder.finish())
}

/// Observability off must equal observability on, bit for bit — the
/// `NopObserver` hooks are default no-ops that monomorphise away, and
/// the `Recorder` only copies values it is handed.
#[test]
fn nop_observer_is_bit_identical_to_recording() {
    let e = experiment();
    let sched = Engine::Sched(e.sched_config(4).expect("4 banks"));
    for kind in [PolicyKind::Vrl, PolicyKind::VrlAccess] {
        // Single-bank front end.
        let off = Outcome::Sim(e.run_policy(kind, "x264").expect("known"));
        let (on, _) = traced(&e, &Engine::Sim, kind, "x264");
        assert_eq!(off, on, "{}: single-bank run diverged", kind.name());

        // Scheduler front end, explicit NopObserver vs Recorder.
        let trace = {
            let spec = vrl::trace::WorkloadSpec::parsec("x264").expect("known");
            vrl::trace::Workload::new(spec, 256, e.config().seed)
        };
        let off = e
            .run(
                &sched,
                kind,
                trace.records(256.0),
                0,
                &mut NopObserver,
                |_| {},
            )
            .expect("runs");
        let (on, stream) = traced(&e, &sched, kind, "x264");
        assert_eq!(off, on, "{}: scheduled run diverged", kind.name());
        assert!(!stream.events.is_empty(), "recording must capture events");
    }
}

/// The exported Chrome trace for a covering workload passes schema
/// validation and carries at least four distinct event types — the
/// acceptance bar for `vrl trace bgsave --policy vrl-access`.
#[test]
fn bgsave_trace_exports_at_least_four_event_kinds() {
    let e = experiment();
    let sched = e.sched_config(4).expect("4 banks");
    let (Outcome::Sched(stats), stream) =
        traced(&e, &Engine::Sched(sched), PolicyKind::VrlAccess, "bgsave")
    else {
        panic!("the scheduler yields scheduler stats");
    };
    let json = chrome_trace_json(
        &stream.events,
        &stream.label,
        &stream.policy,
        stream.dropped,
    );
    let summary = validate_chrome_trace(&json).expect("exporter output must validate");
    assert_eq!(summary.events, stream.events.len());
    assert_eq!(summary.dropped, stream.dropped);
    assert!(
        summary.kinds.len() >= 4,
        "expected >= 4 event types, got {:?}",
        summary.kinds
    );
    for kind in ["Activate", "RefreshFull", "RefreshPartial"] {
        assert!(
            summary.kinds.contains(kind),
            "missing {kind}: {:?}",
            summary.kinds
        );
    }
    assert_eq!(summary.banks.len() as u32, sched.banks());

    // The metrics snapshot mirrors the same run.
    let snap = sched_metrics(&stats);
    assert_eq!(snap.counter("sim.accesses"), stats.sim.accesses);
    let metrics_json = snap.to_json();
    assert!(metrics_json.contains("\"sim.accesses\""));
}

/// Merged multi-run streams stay valid Chrome traces: the stable
/// `(cycle, bank, seq)` merge key keeps every bank track in
/// non-decreasing `ts` order, which the validator enforces.
#[test]
fn merged_streams_export_to_a_valid_trace() {
    let e = Experiment::new(ExperimentConfig {
        rows: 128,
        duration_ms: 64.0,
        ..Default::default()
    });
    let sched = e.sched_config(4).expect("4 banks");
    let streams: Vec<_> = ["ferret", "x264"]
        .iter()
        .map(|b| traced(&e, &Engine::Sched(sched), PolicyKind::Vrl, b).1)
        .collect();
    let merged = merge_streams(&streams);
    assert!(merged.len() > streams.iter().map(|s| s.events.len()).max().unwrap());
    let json = chrome_trace_json(&merged, "merged", "vrl", 0);
    let summary = validate_chrome_trace(&json).expect("merged streams must stay valid");
    assert_eq!(summary.events, merged.len());
    assert!(merged.iter().any(|ev| ev.kind == EventKind::Activate));
}
