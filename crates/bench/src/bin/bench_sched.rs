//! Scheduler study: refresh-busy time and read latency per policy ×
//! front end (in-order, FR-FCFS, multi-bank scheduled).
//!
//! Runs every policy on all three front ends over one benchmark trace,
//! reports refresh-busy cycles, demand-visible (blocked) refresh
//! cycles, stalls, and the scheduled front end's read-latency
//! histogram. Writes `BENCH_sched.json` under `target/experiments/`.
//!
//! Flags:
//!
//! * `--benchmark <name>` (default `ferret`) — trace for the per-policy
//!   table,
//! * `--rows <u32>` (default 2048, at least 1) — total rows across the rank,
//! * `--banks <u32>` (default 8) — banks the rows are split across,
//! * `--duration-ms <f64>` (default 256) — simulated wall time per run.

use std::num::NonZeroU32;

use serde::Serialize;

use vrl_bench::fail;
use vrl_dram::experiment::{sched_metrics, Experiment, ExperimentConfig, PolicyKind};
use vrl_dram::{Engine, Outcome};
use vrl_dram_sim::sim::NullObserver;
use vrl_obs::{MetricsRegistry, MetricsSnapshot};

#[derive(Serialize)]
struct FrontEndRow {
    policy: &'static str,
    front_end: &'static str,
    refresh_busy_cycles: u64,
    refresh_blocked_cycles: Option<u64>,
    stall_cycles: u64,
    hit_rate: f64,
    read_latency_mean: Option<f64>,
    read_latency_p50: Option<u64>,
    read_latency_p99: Option<u64>,
    read_latency_buckets: Option<Vec<(u64, u64)>>,
}

#[derive(Serialize)]
struct BenchSched {
    benchmark: String,
    rows: u32,
    banks: u32,
    duration_ms: f64,
    queue_depth: usize,
    rows_table: Vec<FrontEndRow>,
    scheduled_vs_frfcfs_refresh_blocked: f64,
}

fn main() {
    vrl_bench::section("Scheduler — refresh-busy & read latency per policy × front end");
    let benchmark = vrl_bench::arg_or("--benchmark", "ferret".to_owned());
    let rows = vrl_bench::arg_or("--rows", NonZeroU32::new(2048).expect("2048 is non-zero")).get();
    let banks = vrl_bench::arg_or::<u32>("--banks", 8);
    let duration_ms = vrl_bench::arg_or("--duration-ms", 256.0);

    let experiment = Experiment::new(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    });
    let sched = experiment.sched_config(banks).unwrap_or_else(|e| fail(&e));
    println!(
        "benchmark {benchmark}: {banks} banks × {} rows, {duration_ms} ms simulated",
        sched.rows_per_bank()
    );
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "policy", "front end", "refresh-busy", "blocked", "stall", "hit %", "p50 lat", "p99 lat"
    );

    let mut table = Vec::new();
    // The comparison counters run through the vrl-obs metrics registry
    // instead of ad-hoc locals, and the per-policy scheduler stats merge
    // into one snapshot written alongside the main artifact.
    let mut registry = MetricsRegistry::new();
    let frfcfs_busy = registry.counter("bench.frfcfs_refresh_busy_proxy");
    let sched_blocked_ctr = registry.counter("bench.sched_refresh_blocked");
    let mut sched_merged = MetricsSnapshot::default();
    for kind in PolicyKind::ALL {
        let run = |engine: &Engine| {
            let trace = experiment.trace(&benchmark).unwrap_or_else(|e| fail(&e));
            let outcome = experiment.run(engine, kind, trace, 0, &mut NullObserver, |_| {});
            outcome.unwrap_or_else(|e| fail(&e))
        };
        let in_order = run(&Engine::Sim);
        let queue_depth = sched.queue_depth;
        let frfcfs = run(&Engine::FrFcfs { queue_depth });
        let Outcome::Sched(scheduled) = run(&Engine::Sched(sched)) else {
            unreachable!("the scheduler yields scheduler stats");
        };
        // Single-bank front ends cannot steer refreshes away from
        // demand: every refresh cycle is demand-visible whenever any
        // request is in flight, so their refresh-busy total is the
        // comparison baseline.
        registry.add(frfcfs_busy, frfcfs.sim_stats().refresh_busy_cycles);
        registry.add(sched_blocked_ctr, scheduled.refresh_blocked_cycles);
        sched_merged
            .merge(&sched_metrics(&scheduled))
            .expect("sched snapshots share one shape");

        for (front_end, sim, blocked, lat) in [
            ("in-order", in_order.sim_stats(), None, None),
            ("fr-fcfs", frfcfs.sim_stats(), None, None),
            (
                "scheduled",
                &scheduled.sim,
                Some(scheduled.refresh_blocked_cycles),
                Some(&scheduled.read_latency),
            ),
        ] {
            println!(
                "{:>10} {:>10} {:>12} {:>10} {:>12} {:>8.1} {:>8} {:>8}",
                kind.name(),
                front_end,
                sim.refresh_busy_cycles,
                blocked.map_or_else(|| "-".to_owned(), |b| b.to_string()),
                sim.stall_cycles,
                sim.hit_rate() * 100.0,
                lat.map_or_else(|| "-".to_owned(), |h| h.quantile(0.5).to_string()),
                lat.map_or_else(|| "-".to_owned(), |h| h.quantile(0.99).to_string()),
            );
            table.push(FrontEndRow {
                policy: kind.name(),
                front_end,
                refresh_busy_cycles: sim.refresh_busy_cycles,
                refresh_blocked_cycles: blocked,
                stall_cycles: sim.stall_cycles,
                hit_rate: sim.hit_rate(),
                read_latency_mean: lat.map(|h| h.mean()),
                read_latency_p50: lat.map(|h| h.quantile(0.5)),
                read_latency_p99: lat.map(|h| h.quantile(0.99)),
                read_latency_buckets: lat.map(|h| h.nonzero_buckets()),
            });
        }
    }

    let comparison = registry.snapshot();
    let blocked_ratio = comparison.counter("bench.sched_refresh_blocked") as f64
        / (comparison.counter("bench.frfcfs_refresh_busy_proxy") as f64).max(1.0);
    println!(
        "\ndemand-visible refresh cycles, scheduled vs FR-FCFS refresh-busy: {:.4}x",
        blocked_ratio
    );

    sched_merged
        .merge(&comparison)
        .expect("bench counters are disjoint from sched metrics");
    vrl_bench::write_bench_report(
        "sched",
        &BenchSched {
            benchmark,
            rows,
            banks,
            duration_ms,
            queue_depth: sched.queue_depth,
            rows_table: table,
            scheduled_vs_frfcfs_refresh_blocked: blocked_ratio,
        },
        &sched_merged.to_json(),
    );
}
