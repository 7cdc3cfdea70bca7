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
//! * `--rows <u32>` (default 2048) — bank rows per simulation,
//! * `--duration-ms <f64>` (default 256) — simulated wall time per run,
//! * `--workers <usize>` (default: `VRL_THREADS` or available
//!   parallelism) — pool size for the parallel leg,
//! * `--assert-speedup` — exit non-zero if the parallel leg is slower
//!   than the serial leg (only enforced when both the pool and the host
//!   offer ≥ 2 workers; a single-core host cannot speed anything up),
//!   or if the full-DIMM SoA hot loop fails to run at least 2× the
//!   events/sec of the reference per-bank-heap engine,
//! * `--baseline <file>` — diff the full-DIMM events/sec against a
//!   previously committed `BENCH_throughput.json` and exit non-zero on
//!   a > 10 % regression (skipped, with a note, when the baseline's
//!   schema version differs).
//!
//! The full-DIMM leg runs a 2-channel × 2-rank × 16-bank geometry
//! through the reference per-bank-heap engine and the struct-of-arrays
//! scheduler, replaying one pre-materialized trace per benchmark
//! (engine throughput only), and asserts both produce bit-identical
//! statistics.

use serde::Serialize;

use vrl_bench::fail;
use vrl_dram::experiment::{sim_metrics, Experiment, ExperimentConfig, MatrixCell, PolicyKind};
use vrl_dram::Engine;
use vrl_dram_sim::stats::{SimStats, Throughput};
use vrl_exec::ExecConfig;
use vrl_obs::json::JsonValue;
use vrl_obs::MetricsSnapshot;
use vrl_sched::{ReferenceScheduler, Scheduler};
use vrl_trace::{Workload, WorkloadSpec};

/// Tolerated parallel/serial wall-clock ratio under `--assert-speedup`.
/// Pool bookkeeping on tiny matrices can cost a few percent; a healthy
/// multi-core run lands well below 1.
const MAX_SLOWDOWN: f64 = 1.10;

/// Tolerated events/sec drop against `--baseline` before the run fails.
const MAX_REGRESSION: f64 = 0.10;

#[derive(Serialize)]
struct Leg {
    workers: usize,
    wall_seconds: f64,
    sim_cycles_per_sec: f64,
    events_per_sec: f64,
    worker_utilization: Vec<f64>,
    mean_utilization: f64,
}

/// The full-DIMM geometry metered on both engines over the same matrix.
#[derive(Serialize)]
struct DimmLeg {
    channels: u32,
    ranks: u32,
    banks: u32,
    rows_per_bank: u32,
    reference_events_per_sec: f64,
    soa_events_per_sec: f64,
    soa_speedup_vs_reference: f64,
    bit_identical: bool,
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
    full_dimm: DimmLeg,
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
    let rows = vrl_bench::arg_f64("--rows", 2048.0) as u32;
    let duration_ms = vrl_bench::arg_f64("--duration-ms", 256.0);
    let default_workers = ExecConfig::from_env().workers;
    let workers = vrl_bench::arg_f64("--workers", default_workers as f64).max(1.0) as usize;
    let assert_speedup = std::env::args().any(|a| a == "--assert-speedup");

    let experiment = Experiment::new(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    });
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

    // Full-DIMM leg: the same policy over every benchmark at
    // 2ch × 2rk × 16bk, through the reference per-bank-heap engine and
    // the SoA scheduler.
    let dimm = experiment
        .dimm_config(2, 2, 16)
        .unwrap_or_else(|e| fail(&e));
    let seed = experiment.config().seed;

    // The reference and SoA engines meter scheduling throughput, not
    // trace generation: each benchmark's trace is materialized once
    // outside the timers and both engines replay the same records.
    // Interleaving the two runs per benchmark also spreads host noise
    // evenly across the legs.
    let mut reference_wall = 0.0;
    let mut soa_wall = 0.0;
    let mut reference_cells = Vec::new();
    let mut soa_cells = Vec::new();
    for benchmark in WorkloadSpec::BENCHMARKS {
        let spec = WorkloadSpec::parsec(benchmark).expect("known benchmark");
        let trace: Vec<_> = Workload::new(spec, rows, seed)
            .records(duration_ms)
            .collect();

        let started = std::time::Instant::now();
        let stats = ReferenceScheduler::new(dimm, experiment.plan().vrl_access())
            .and_then(|mut engine| engine.run(trace.iter().copied(), duration_ms))
            .unwrap_or_else(|e| fail(&e));
        reference_wall += started.elapsed().as_secs_f64();
        reference_cells.push(stats);

        let started = std::time::Instant::now();
        let stats = Scheduler::new(dimm, experiment.plan().vrl_access())
            .and_then(|mut engine| engine.run(trace.iter().copied(), duration_ms))
            .unwrap_or_else(|e| fail(&e));
        soa_wall += started.elapsed().as_secs_f64();
        soa_cells.push(stats);
    }

    let dimm_bit_identical = soa_cells == reference_cells;
    let dimm_events: u64 = soa_cells.iter().map(|s| s.sim.events()).sum();
    let reference_eps = dimm_events as f64 / reference_wall.max(f64::MIN_POSITIVE);
    let soa_eps = dimm_events as f64 / soa_wall.max(f64::MIN_POSITIVE);
    let soa_speedup = soa_eps / reference_eps.max(f64::MIN_POSITIVE);
    println!(
        "\nfull DIMM ({}ch × {}rk × {}bk × {} rows, {}):",
        dimm.channels(),
        dimm.ranks(),
        dimm.banks_per_rank(),
        dimm.rows_per_bank(),
        PolicyKind::VrlAccess.name()
    );
    for (name, wall, eps) in [
        ("reference", reference_wall, reference_eps),
        ("soa", soa_wall, soa_eps),
    ] {
        println!("{name:>9}: {wall:>7.3} s wall, {eps:>11.3e} events/s");
    }
    println!("SoA vs reference: {soa_speedup:.2}x, results bit-identical: {dimm_bit_identical}");
    let full_dimm = DimmLeg {
        channels: dimm.channels(),
        ranks: dimm.ranks(),
        banks: dimm.banks(),
        rows_per_bank: dimm.rows_per_bank(),
        reference_events_per_sec: reference_eps,
        soa_events_per_sec: soa_eps,
        soa_speedup_vs_reference: soa_speedup,
        bit_identical: dimm_bit_identical,
    };

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
            full_dimm,
        },
        &metrics.to_json(),
    );

    if !bit_identical {
        eprintln!("FAIL: parallel results diverge from serial (determinism contract broken)");
        std::process::exit(1);
    }
    if !dimm_bit_identical {
        eprintln!("FAIL: full-DIMM engines diverge (reference and SoA must be bit-identical)");
        std::process::exit(1);
    }
    let baseline = vrl_bench::arg_str("--baseline", "");
    if !baseline.is_empty() {
        check_baseline(&baseline, soa_eps);
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
        if soa_speedup < 2.0 {
            eprintln!(
                "FAIL: full-DIMM SoA scheduler at {soa_speedup:.2}x the reference engine \
                 (contract: >= 2x events/sec)"
            );
            std::process::exit(1);
        }
        println!("full-DIMM speedup assertion passed ({soa_speedup:.2}x)");
    }
}

/// Diffs the current full-DIMM SoA events/sec against a committed
/// `BENCH_throughput.json`; exits non-zero past [`MAX_REGRESSION`].
/// A baseline with a different schema version (or one predating the
/// `full_dimm` leg) cannot be compared and is skipped with a note.
fn check_baseline(path: &str, soa_eps: f64) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("FAIL: cannot read baseline {path}: {err}");
            std::process::exit(1);
        }
    };
    let doc = match vrl_obs::json::parse(&text) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("FAIL: baseline {path} is not valid JSON: {err}");
            std::process::exit(1);
        }
    };
    let schema = doc.get("schema_version").and_then(JsonValue::as_f64);
    if schema != Some(f64::from(vrl_bench::SCHEMA_VERSION)) {
        println!(
            "baseline diff skipped: {path} has schema version {schema:?}, \
             current is {}",
            vrl_bench::SCHEMA_VERSION
        );
        return;
    }
    let Some(base_eps) = doc
        .get("full_dimm")
        .and_then(|leg| leg.get("soa_events_per_sec"))
        .and_then(JsonValue::as_f64)
    else {
        println!("baseline diff skipped: {path} has no full_dimm leg");
        return;
    };
    let floor = base_eps * (1.0 - MAX_REGRESSION);
    if soa_eps < floor {
        eprintln!(
            "FAIL: full-DIMM events/sec regressed beyond {:.0}%: {soa_eps:.3e} vs \
             baseline {base_eps:.3e}",
            MAX_REGRESSION * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "baseline diff passed: {soa_eps:.3e} events/s vs baseline {base_eps:.3e} \
         (floor {floor:.3e})"
    );
}
