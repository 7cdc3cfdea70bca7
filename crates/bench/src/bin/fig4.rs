//! Figure 4: refresh performance overhead with real traces, normalized
//! to RAIDR.
//!
//! Paper averages: VRL ≈ 23 % below RAIDR (application-independent),
//! VRL-Access ≈ 34 % below RAIDR / 13 % below VRL.
//!
//! Flags: `--duration-ms <f64>` (default 2048) controls the simulated
//! wall time per run. The (benchmark × policy) matrix fans across the
//! `vrl-exec` worker pool; set `VRL_THREADS` to pin the worker count.

use serde::Serialize;

use vrl_bench::fail;
use vrl_dram::experiment::{ComparisonRow, Experiment, ExperimentConfig};
use vrl_exec::ExecConfig;

#[derive(Serialize)]
struct Fig4 {
    duration_ms: f64,
    rows: Vec<ComparisonRow>,
    avg_vrl_normalized: f64,
    avg_vrl_access_normalized: f64,
}

fn main() {
    vrl_bench::section("Figure 4 — refresh performance overhead (normalized to RAIDR)");
    let duration_ms = vrl_bench::arg_or("--duration-ms", 2048.0);
    let experiment = Experiment::new(vrl_bench::checked(ExperimentConfig {
        duration_ms,
        ..Default::default()
    }));

    println!(
        "bank: {} rows, {} ms simulated, nbits = {}\n",
        experiment.config().rows,
        duration_ms,
        experiment.config().nbits
    );
    println!(
        "{:>14} {:>8} {:>8} {:>12}",
        "benchmark", "RAIDR", "VRL", "VRL-Access"
    );

    let rows = experiment
        .compare_all(&ExecConfig::from_env())
        .unwrap_or_else(|e| fail(&e));
    let (mut sum_v, mut sum_va) = (0.0, 0.0);
    for row in &rows {
        println!(
            "{:>14} {:>8.3} {:>8.3} {:>12.3}",
            row.benchmark, 1.0, row.vrl_normalized, row.vrl_access_normalized
        );
        sum_v += row.vrl_normalized;
        sum_va += row.vrl_access_normalized;
    }
    let n = rows.len() as f64;
    let (avg_v, avg_va) = (sum_v / n, sum_va / n);
    println!(
        "{:>14} {:>8.3} {:>8.3} {:>12.3}",
        "AVERAGE", 1.0, avg_v, avg_va
    );
    println!(
        "\nVRL reduction vs RAIDR:        {:.1}%  (paper: 23%)",
        (1.0 - avg_v) * 100.0
    );
    println!(
        "VRL-Access reduction vs RAIDR: {:.1}%  (paper: 34%)",
        (1.0 - avg_va) * 100.0
    );
    println!(
        "VRL-Access reduction vs VRL:   {:.1}%  (paper: 13%)",
        (1.0 - avg_va / avg_v) * 100.0
    );

    vrl_bench::write_json(
        "fig4",
        &Fig4 {
            duration_ms,
            rows,
            avg_vrl_normalized: avg_v,
            avg_vrl_access_normalized: avg_va,
        },
    );
}
