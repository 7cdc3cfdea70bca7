//! The per-layer metrics a traced run prints.
//!
//! Naming: a layer is named after its crate (`trace`, `retention`,
//! `core`, `dram`, `sched`, `obs`, `snap`, `serve`, `circuit`, `spice`).
//! `_ms` metrics are self-time totals over the traced phase, `_us`
//! metrics are means per call (per request for `serve.*`), and
//! `_ns_per_*` are self time per unit of work. A layer the workload
//! never enters reports 0.

use std::collections::BTreeMap;

use crate::spans::{unattributed_ms, Spans};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("trace.gen_ms", "ms"),
    ("trace.records", "count"),
    ("trace.ns_per_record", "ns"),
    ("retention.profile_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("dram.sim_ms", "ms"),
    ("dram.sim_ns_per_event", "ns"),
    ("dram.frfcfs_ms", "ms"),
    ("dram.frfcfs_ns_per_event", "ns"),
    ("sched.bank_ms", "ms"),
    ("sched.bank_ns_per_event", "ns"),
    ("sched.dimm_ms", "ms"),
    ("sched.dimm_ns_per_event", "ns"),
    ("dram.faulted_ms", "ms"),
    ("dram.faulted_ns_per_event", "ns"),
    ("obs.snapshot_ms", "ms"),
    ("serve.rtt_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.spec.parse_us", "us"),
    ("snap.spec_hash_us", "us"),
    ("obs.json_parse_us", "us"),
    ("serve.frame_bytes", "bytes"),
    ("serve.job.queue_wait_us", "us"),
    ("serve.job.artifact_build_us", "us"),
    ("serve.job.run_us", "us"),
    ("serve.job.serialize_us", "us"),
    ("serve.cache.profile_hit_ratio", "ratio"),
    ("serve.cache.trace_hit_ratio", "ratio"),
    ("serve.cache.result_hit_ratio", "ratio"),
    ("serve.shed_total", "count"),
    ("circuit.netlist_build_us", "us"),
    ("spice.transient_ms", "ms"),
    ("spice.steps", "count"),
    ("spice.nodes", "count"),
    ("spice.us_per_step", "us"),
    ("circuit.model_us", "us"),
    ("unattributed_ms", "ms"),
    ("tracing_overhead_pct", "pct"),
    ("traced_wall_ms", "ms"),
    ("untraced_wall_ms", "ms"),
];

/// One timed phase: its wall time as measured, and the host-speed
/// factor over it ([`crate::host::HostProbe::factor`]).
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub wall_ms: f64,
    pub host_factor: f64,
}

/// Layer values of one traced run, plus each span's share of the traced
/// wall time for the human-readable report.
#[derive(Debug)]
pub struct LayerReport {
    values: BTreeMap<&'static str, f64>,
    shares: Vec<(&'static str, f64, f64)>,
}

fn known(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("per-layer metric {name:?} is not in PER_LAYER"))
}

impl LayerReport {
    /// Turns the spans of the `traced` phase into layer metrics;
    /// `untraced` is the same work timed without spans. The tracing
    /// overhead compares the two at the same host speed.
    pub fn new(spans: &Spans, traced: Phase, untraced: Phase) -> LayerReport {
        let traced_ms = traced.wall_ms;
        let mut report = LayerReport {
            values: BTreeMap::new(),
            shares: Vec::new(),
        };
        for (layer, total) in spans.layers() {
            let ms = total.self_ns as f64 / 1e6;
            report.shares.push((layer, ms, 100.0 * ms / traced_ms));
            let total_name = format!("{layer}_ms");
            let mean_name = format!("{layer}_us");
            if PER_LAYER.iter().any(|(n, _)| *n == total_name) {
                report.set(&total_name, ms);
            } else if PER_LAYER.iter().any(|(n, _)| *n == mean_name) {
                report.set(&mean_name, ms * 1e3 / total.calls.max(1) as f64);
            }
        }
        report.set("unattributed_ms", unattributed_ms(traced_ms, spans));
        let normalized = |p: Phase| p.wall_ms * p.host_factor;
        report.set(
            "tracing_overhead_pct",
            100.0 * (normalized(traced) / normalized(untraced) - 1.0),
        );
        report.set("traced_wall_ms", traced_ms);
        report.set("untraced_wall_ms", untraced.wall_ms);
        report
    }

    /// Sets one metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(known(name), value);
    }

    /// Sets `<layer>_ns_per_event` from the layer's self time in `spans`.
    pub fn set_per_event(&mut self, spans: &Spans, layer: &str, events: u64) {
        if events > 0 {
            let ns = spans.get(layer).self_ns as f64 / events as f64;
            self.set(&format!("{layer}_ns_per_event"), ns);
        }
    }

    /// Every metric of [`PER_LAYER`], in order, 0 where unset.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// `(layer, self ms, % of traced wall)` of every span.
    pub fn shares(&self) -> &[(&'static str, f64, f64)] {
        &self.shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_totals_map_onto_named_metrics() {
        let mut spans = Spans::default();
        spans.charge("trace.gen", 6_000_000, 3);
        spans.charge("circuit.model", 4_000_000, 2);
        let phase = |wall_ms, host_factor| Phase {
            wall_ms,
            host_factor,
        };
        let mut report = LayerReport::new(&spans, phase(20.0, 1.0), phase(32.0, 0.5));
        report.set_per_event(&spans, "trace.gen", 0);
        let get = |name| {
            report
                .metrics()
                .into_iter()
                .find(|m| m.0 == name)
                .unwrap()
                .1
        };
        assert_eq!(get("trace.gen_ms"), 6.0);
        assert_eq!(get("circuit.model_us"), 2000.0);
        assert_eq!(get("unattributed_ms"), 10.0);
        assert_eq!(get("tracing_overhead_pct"), 25.0);
        assert_eq!(get("spice.steps"), 0.0);
        assert_eq!(report.metrics().len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not in PER_LAYER")]
    fn unknown_metric_names_are_bugs() {
        let spans = Spans::default();
        let phase = Phase {
            wall_ms: 1.0,
            host_factor: 1.0,
        };
        LayerReport::new(&spans, phase, phase).set("trace.gen_s", 1.0);
    }
}
