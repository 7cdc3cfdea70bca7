//! Ablation: demand-first refresh postponement (DDR4-style).
//!
//! Refreshes that would collide with an imminent access can yield within
//! a bounded slack of their deadline. Postponement never changes the
//! refresh work (deadlines advance from the original schedule), but cuts
//! the stall cycles accesses spend behind refreshes.

use serde::Serialize;

use vrl_dram::experiment::{Experiment, ExperimentConfig};
use vrl_dram_sim::sim::{SimConfig, Simulator};
use vrl_trace::{Workload, WorkloadSpec};

#[derive(Serialize)]
struct PostponeRow {
    slack_us: f64,
    stall_cycles: u64,
    postponed_refreshes: u64,
    refresh_busy_cycles: u64,
}

fn main() {
    vrl_bench::section("Ablation — demand-first refresh postponement");
    let duration_ms = vrl_bench::arg_or("--duration-ms", 512.0);
    let config = vrl_bench::checked(ExperimentConfig {
        rows: 4096,
        duration_ms,
        ..Default::default()
    });
    let experiment = Experiment::new(config);
    let spec = WorkloadSpec::parsec("canneal").expect("known benchmark");

    println!(
        "{:>10} {:>14} {:>12} {:>16}",
        "slack", "stalls (cyc)", "postponed", "refresh (cyc)"
    );
    // Each slack point is an independent simulation; fan the sweep across
    // the worker pool (workers via VRL_THREADS, job order preserved).
    let slacks = [0.0_f64, 1.0, 8.0, 64.0, 512.0];
    let rows = vrl_exec::map_ordered(
        &vrl_exec::ExecConfig::from_env(),
        &slacks,
        |_, &slack_us| {
            let slack_cycles = (slack_us * 1000.0) as u64;
            let sim_config = SimConfig::with_rows(config.rows).with_postpone_slack(slack_cycles);
            let workload = Workload::new(spec.clone(), config.rows, config.seed);
            let mut sim = Simulator::new(sim_config, experiment.plan().vrl_access());
            let stats = sim.run(workload.records(duration_ms), duration_ms);
            Ok::<_, std::convert::Infallible>(PostponeRow {
                slack_us,
                stall_cycles: stats.stall_cycles,
                postponed_refreshes: stats.postponed_refreshes,
                refresh_busy_cycles: stats.refresh_busy_cycles,
            })
        },
    )
    .expect("infallible jobs");
    for row in &rows {
        println!(
            "{:>7.0} µs {:>14} {:>12} {:>16}",
            row.slack_us, row.stall_cycles, row.postponed_refreshes, row.refresh_busy_cycles
        );
    }
    println!("\nstalls fall with slack while refresh work stays constant;");
    println!("the slack (µs) is negligible against retention times (hundreds of ms).");

    vrl_bench::write_json("ablation_postpone", &rows);
}
