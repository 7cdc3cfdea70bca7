//! Throughput meter: serial vs parallel experiment-matrix execution.
//!
//! Runs the full (benchmark × policy) matrix once on the serial path and
//! once through the `vrl-exec` worker pool, reports simulated cycles/sec,
//! events/sec and per-worker utilization, and verifies the determinism
//! contract (bit-identical statistics on both paths). Writes
//! `BENCH_throughput.json` under `target/experiments/`.
//!
//! Flags:
//!
//! * `--rows <u32>` (default 2048, at least 1) — bank rows per simulation,
//! * `--duration-ms <f64>` (default 256) — simulated wall time per run,
//! * `--workers <usize>` (default: `VRL_THREADS` or available
//!   parallelism) — pool size for the parallel leg,
//! * `--assert-speedup` — exit non-zero if the parallel leg is slower
//!   than the serial leg (only enforced when both the pool and the host
//!   offer ≥ 2 workers; a single-core host cannot speed anything up).
//!
//! Engine speed (SoA vs reference scheduler, every front end against
//! `dram::sim`) is metered and gated by the `vrl-sched` `hotloop`
//! example, not here.

use std::num::NonZeroU32;

use serde::Serialize;

use vrl_bench::fail;
use vrl_dram::experiment::{sim_metrics, Experiment, ExperimentConfig, MatrixCell, PolicyKind};
use vrl_dram::Engine;
use vrl_dram_sim::stats::{SimStats, Throughput};
use vrl_exec::ExecConfig;
use vrl_obs::MetricsSnapshot;

/// Tolerated parallel/serial wall-clock ratio under `--assert-speedup`.
/// Pool bookkeeping on tiny matrices can cost a few percent; a healthy
/// multi-core run lands well below 1.
const MAX_SLOWDOWN: f64 = 1.10;

#[derive(Serialize)]
struct Leg {
    workers: usize,
    wall_seconds: f64,
    sim_cycles_per_sec: f64,
    events_per_sec: f64,
    worker_utilization: Vec<f64>,
    mean_utilization: f64,
}

#[derive(Serialize)]
struct BenchThroughput {
    rows: u32,
    duration_ms: f64,
    benchmarks: usize,
    policies: usize,
    jobs: usize,
    sim_cycles: u64,
    events: u64,
    serial: Leg,
    parallel: Leg,
    speedup: f64,
    bit_identical: bool,
}

/// Totals across the matrix, routed through the `vrl-obs` metrics
/// registry: every cell's counters become one mergeable snapshot, and
/// the [`SimStats`] the throughput meter needs is read *back* from the
/// merged snapshot so the artifact numbers and the registry agree by
/// construction.
fn accumulate(cells: &[MatrixCell]) -> (SimStats, MetricsSnapshot) {
    let snapshots: Vec<MetricsSnapshot> = cells
        .iter()
        .map(|c| sim_metrics(c.outcome.sim_stats()))
        .collect();
    let merged = MetricsSnapshot::merged(snapshots.iter()).expect("sim snapshots share one shape");
    let total = SimStats {
        total_cycles: merged.counter("sim.total_cycles"),
        refresh_busy_cycles: merged.counter("sim.refresh_busy_cycles"),
        full_refreshes: merged.counter("sim.full_refreshes"),
        partial_refreshes: merged.counter("sim.partial_refreshes"),
        accesses: merged.counter("sim.accesses"),
        row_hits: merged.counter("sim.row_hits"),
        row_misses: merged.counter("sim.row_misses"),
        stall_cycles: merged.counter("sim.stall_cycles"),
        postponed_refreshes: merged.counter("sim.postponed_refreshes"),
        dropped_refreshes: merged.counter("sim.dropped_refreshes"),
        delayed_refreshes: merged.counter("sim.delayed_refreshes"),
        scrub_accesses: merged.counter("sim.scrub_accesses"),
        scrub_busy_cycles: merged.counter("sim.scrub_busy_cycles"),
        corrected_errors: merged.counter("sim.corrected_errors"),
        uncorrected_errors: merged.counter("sim.uncorrected_errors"),
    };
    (total, merged)
}

fn leg(report: &vrl_exec::PoolReport, throughput: &Throughput) -> Leg {
    Leg {
        workers: report.workers,
        wall_seconds: throughput.wall_seconds,
        sim_cycles_per_sec: throughput.sim_cycles_per_sec,
        events_per_sec: throughput.events_per_sec,
        worker_utilization: report.utilization(),
        mean_utilization: report.mean_utilization(),
    }
}

fn main() {
    vrl_bench::section("Throughput — serial vs parallel matrix execution");
    let rows = vrl_bench::arg_or("--rows", NonZeroU32::new(2048).expect("2048 is non-zero")).get();
    let duration_ms = vrl_bench::arg_or("--duration-ms", 256.0);
    let default_workers = ExecConfig::from_env().workers;
    let workers = vrl_bench::arg_or("--workers", default_workers).max(1);
    let assert_speedup = std::env::args().any(|a| a == "--assert-speedup");

    let experiment = Experiment::new(vrl_bench::checked(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    }));
    let policies = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];
    println!(
        "bank: {rows} rows, {duration_ms} ms simulated, {} benchmarks × {} policies",
        vrl_trace::WorkloadSpec::BENCHMARKS.len(),
        policies.len()
    );

    let matrix = |workers: usize| {
        experiment
            .run_matrix(&Engine::Sim, &policies, &ExecConfig::new(workers))
            .unwrap_or_else(|e| fail(&e))
    };
    let (serial_cells, serial_report) = matrix(1);
    let (parallel_cells, parallel_report) = matrix(workers);

    let bit_identical = serial_cells == parallel_cells;
    let (totals, metrics) = accumulate(&serial_cells);
    let serial_tp = totals.throughput(serial_report.wall.as_secs_f64());
    let parallel_tp = totals.throughput(parallel_report.wall.as_secs_f64());
    let speedup = serial_tp.wall_seconds / parallel_tp.wall_seconds.max(f64::MIN_POSITIVE);

    for (name, report, tp) in [
        ("serial", &serial_report, &serial_tp),
        ("parallel", &parallel_report, &parallel_tp),
    ] {
        println!(
            "{name:>9}: {:>2} workers, {:>7.3} s wall, {:>12.3e} sim cycles/s, \
             {:>11.3e} events/s, {:>5.1}% mean utilization",
            report.workers,
            tp.wall_seconds,
            tp.sim_cycles_per_sec,
            tp.events_per_sec,
            report.mean_utilization() * 100.0,
        );
    }
    println!(
        "\nspeedup: {speedup:.2}x ({} workers), results bit-identical: {bit_identical}",
        parallel_report.workers
    );

    vrl_bench::write_bench_report(
        "throughput",
        &BenchThroughput {
            rows,
            duration_ms,
            benchmarks: vrl_trace::WorkloadSpec::BENCHMARKS.len(),
            policies: policies.len(),
            jobs: serial_report.jobs,
            sim_cycles: totals.total_cycles,
            events: totals.events(),
            serial: leg(&serial_report, &serial_tp),
            parallel: leg(&parallel_report, &parallel_tp),
            speedup,
            bit_identical,
        },
        &metrics.to_json(),
    );

    if !bit_identical {
        eprintln!("FAIL: parallel results diverge from serial (determinism contract broken)");
        std::process::exit(1);
    }
    if assert_speedup {
        let host = vrl_exec::available_workers();
        if parallel_report.workers >= 2 && host >= 2 {
            if speedup < 1.0 / MAX_SLOWDOWN {
                eprintln!(
                    "FAIL: parallel leg slower than serial ({speedup:.2}x) with \
                     {} workers on a {host}-way host",
                    parallel_report.workers
                );
                std::process::exit(1);
            }
            println!("speedup assertion passed ({speedup:.2}x)");
        } else {
            println!(
                "speedup assertion skipped: {} pool workers on a {host}-way host",
                parallel_report.workers
            );
        }
    }
}
