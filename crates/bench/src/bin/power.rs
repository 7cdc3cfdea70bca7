//! Section 4.1 (text): refresh power of VRL-DRAM vs RAIDR.
//!
//! Paper: VRL-DRAM reduces refresh power by ~12 % over RAIDR (DRAMPower
//! methodology). The saving is much smaller than the 34 % latency saving
//! because the charge a refresh must replenish is duration-independent.
//!
//! The (benchmark × policy) matrix fans across the `vrl-exec` worker
//! pool; set `VRL_THREADS` to pin the worker count.

use serde::Serialize;

use vrl_bench::fail;
use vrl_dram::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl_dram::Engine;
use vrl_exec::ExecConfig;

#[derive(Serialize)]
struct PowerRow {
    benchmark: String,
    raidr_refresh_mw: f64,
    vrl_refresh_mw: f64,
    vrl_access_refresh_mw: f64,
}

fn main() {
    vrl_bench::section("Refresh power vs RAIDR (Section 4.1)");
    let duration_ms = vrl_bench::arg_or("--duration-ms", 1024.0);
    let experiment = Experiment::new(ExperimentConfig {
        duration_ms,
        ..Default::default()
    });
    let power = *experiment.power();

    println!(
        "{:>14} {:>12} {:>12} {:>14}",
        "benchmark", "RAIDR (mW)", "VRL (mW)", "VRL-Acc (mW)"
    );
    let policies = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];
    let (cells, _) = experiment
        .run_matrix(&Engine::Sim, &policies, &ExecConfig::from_env())
        .unwrap_or_else(|e| fail(&e));
    let mut rows = Vec::new();
    let (mut sum_r, mut sum_v, mut sum_va) = (0.0, 0.0, 0.0);
    for group in cells.chunks_exact(policies.len()) {
        let name = &group[0].benchmark;
        let [raidr, vrl, va] = [0, 1, 2].map(|i| power.breakdown(group[i].outcome.sim_stats()));
        println!(
            "{:>14} {:>12.4} {:>12.4} {:>14.4}",
            name, raidr.refresh_mw, vrl.refresh_mw, va.refresh_mw
        );
        sum_r += raidr.refresh_mw;
        sum_v += vrl.refresh_mw;
        sum_va += va.refresh_mw;
        rows.push(PowerRow {
            benchmark: name.clone(),
            raidr_refresh_mw: raidr.refresh_mw,
            vrl_refresh_mw: vrl.refresh_mw,
            vrl_access_refresh_mw: va.refresh_mw,
        });
    }
    println!(
        "\nVRL-DRAM refresh power reduction vs RAIDR: {:.1}%  (paper: ~12%)",
        (1.0 - sum_va / sum_r) * 100.0
    );
    println!(
        "plain VRL refresh power reduction: {:.1}%",
        (1.0 - sum_v / sum_r) * 100.0
    );

    vrl_bench::write_json("power", &rows);
}
