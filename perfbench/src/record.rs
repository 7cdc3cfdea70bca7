//! `--record-golden <workload>`: prints the golden file a workload checks
//! against, computed through the program's reference paths. Redirect it
//! to `perfbench/golden/<workload>.golden` after a change that is meant
//! to alter results, and say so in the change.

use std::collections::BTreeMap;

use vrl_circuit::tech::Technology;
use vrl_circuit::validation::measure_presensing;
use vrl_dram::experiment::Experiment;
use vrl_serve::runner::direct_result;
use vrl_trace::WorkloadSpec;

use crate::spans::Spans;
use crate::{circuit, fig4, serve};

pub fn golden(workload: &str) -> Result<(), String> {
    match workload {
        "fig4-stream" => {
            println!("# seed benchmark policy refresh_busy_cycles");
            for seed in crate::SEED_POOL {
                let experiment = Experiment::new(fig4::config(seed));
                for benchmark in WorkloadSpec::BENCHMARKS {
                    for policy in fig4::POLICIES {
                        let stats = experiment
                            .run_policy(policy, benchmark)
                            .map_err(|e| e.to_string())?;
                        let busy = stats.refresh_busy_cycles;
                        println!("{seed} {benchmark} {} {busy}", policy.name());
                    }
                }
            }
        }
        "serve-cold" | "serve-warm" => {
            println!("# spec_hash fnv1a64(direct_result frame)");
            let mut specs = BTreeMap::new();
            for seed in crate::SEED_POOL {
                let grid = if workload == "serve-cold" {
                    serve::cold_grid(seed)
                } else {
                    serve::warm_grid(seed)
                };
                specs.extend(grid.into_iter().map(|r| (r.spec.canonical_hash(), r.spec)));
            }
            for (spec_hash, spec) in specs {
                let frame = direct_result(&spec).map_err(|e| e.to_string())?;
                let hash = vrl_snap::fnv1a64(frame.as_bytes());
                println!("{spec_hash:016x} {hash:016x}");
            }
        }
        "circuit-validate" => {
            println!("# rows cols window spice_cycles our_cycles steps nodes");
            let tech = Technology::n90();
            for (g, window) in circuit::solve_pool() {
                let row = measure_presensing(&tech, g, window).map_err(|e| e.to_string())?;
                let solve = circuit::presense_traced(&tech, g, window, &mut Spans::default())?;
                if (solve.spice_cycles, solve.our_cycles) != (row.spice_cycles, row.our_cycles) {
                    return Err(format!("{g} window {window}: layered solve disagrees"));
                }
                println!(
                    "{} {} {window} {} {} {} {}",
                    g.rows, g.cols, row.spice_cycles, row.our_cycles, solve.steps, solve.nodes
                );
            }
        }
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}
