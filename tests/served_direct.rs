//! Served ≡ direct for every front end: a spec run the way the daemon
//! runs it — cache-shared artifacts, span-segmented engines, progress
//! callbacks at a small cadence — must return the same result-frame
//! bytes as a fresh, unsegmented in-process run of the same spec.
//!
//! The specs are tiny (256 rows, 32 ms) so this guard stays cheap in
//! the debug profile while still driving every engine through many
//! pauses.

use vrl_serve::cache::ArtifactCache;
use vrl_serve::runner;
use vrl_serve::spec::{parse_spec, FrontEnd};
use vrl_serve::JobSpec;

/// One tiny spec per front end, the faulted one with its guard on.
const SPECS: [&str; 5] = [
    r#"{"benchmark":"swaptions","policy":"vrl-access","rows":256,"duration_ms":32}"#,
    r#"{"benchmark":"ferret","policy":"vrl","front_end":"frfcfs","queue_depth":8,"rows":256,"duration_ms":32}"#,
    r#"{"benchmark":"bgsave","policy":"vrl-access","front_end":"sched","banks":4,"rows":256,"duration_ms":32}"#,
    r#"{"benchmark":"canneal","policy":"raidr","front_end":"dimm","channels":2,"ranks":1,"banks_per_rank":2,"rows":256,"duration_ms":32}"#,
    r#"{"benchmark":"vips","policy":"vrl","front_end":"faulted","fault_seed":7,"guard":true,"rows":256,"duration_ms":32}"#,
];

/// Pause every 200k cycles: 160 spans over the 32 ms horizon.
const SPAN_CYCLES: u64 = 200_000;

fn spec(json: &str) -> JobSpec {
    parse_spec(&vrl_obs::json::parse(json).expect("valid JSON")).expect("valid spec")
}

#[test]
fn served_results_match_direct_runs_on_every_front_end() {
    let cache = ArtifactCache::new();
    for json in SPECS {
        let spec = spec(json);
        let mut spans = Vec::new();
        let served = runner::run_with_cache(&cache, &spec, SPAN_CYCLES, |p| spans.push(p))
            .expect("served run");
        let direct = runner::direct_result(&spec).expect("direct run");
        assert_eq!(served, direct, "served and direct bytes differ for {json}");
        if matches!(spec.front_end, FrontEnd::Faulted { .. }) {
            // The fault injector has no span seam: no progress.
            assert!(spans.is_empty());
        } else {
            assert!(!spans.is_empty(), "no progress reported for {json}");
            assert!(spans.iter().all(|p| p.cycle <= p.end), "{json}");
        }
    }
}
