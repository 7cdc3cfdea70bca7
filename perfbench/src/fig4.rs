//! `fig4-stream`: the paper's Figure-4 matrix, in process, one thread.
//!
//! Every benchmark × {RAIDR, VRL, VRL-Access} on the paper's 8192-row
//! bank, for four profile seeds: the reference seed and three drawn from
//! `--seed`. Each cell
//! regenerates its trace, as `Experiment::run_matrix_serial` does, so
//! trace generation carries most of the work.

use std::hint::black_box;
use std::time::Instant;

use vrl_dram::experiment::{sim_metrics, Experiment, ExperimentConfig, PolicyKind};
use vrl_obs::NopObserver;
use vrl_trace::WorkloadSpec;

use crate::golden::{self, Fig4Golden};
use crate::host::HostProbe;
use crate::layers::{LayerReport, Phase};
use crate::spans::Spans;
use crate::{passes, run_seeds, Run, SeedRng, PAPER_VRL_ACCESS_REDUCTION_PCT, REFERENCE_SEED};

/// Profile seeds per run.
const SEEDS_PER_RUN: usize = 4;
/// Figure 4's columns.
pub const POLICIES: [PolicyKind; 3] = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];
/// Simulated time per cell: half the paper default, so one matrix pass
/// fits the run.
const DURATION_MS: f64 = 256.0;
/// One matrix pass on the reference host.
const REFERENCE_PASS_S: f64 = 21.5;
/// Set-up (profile + plan for every seed) is repeated this often and
/// reported as the median.
const SETUP_REPEATS: usize = 3;

pub fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        duration_ms: DURATION_MS,
        ..ExperimentConfig::default()
    }
}

struct Cell<'a> {
    experiment: &'a Experiment,
    seed: u64,
    benchmark: &'static str,
    policy: PolicyKind,
}

/// Checked refresh-busy cycles of one pass, with failure and event
/// counts.
#[derive(Default)]
struct Tally {
    checked: Vec<(u64, &'static str, PolicyKind, u64)>,
    events: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, golden: &Fig4Golden, cell: &Cell<'_>, outcome: Option<(u64, u64)>) {
        let key = (
            cell.seed,
            cell.benchmark.to_owned(),
            cell.policy.name().to_owned(),
        );
        match outcome {
            Some((cycles, events)) if golden.get(&key) == Some(&cycles) => {
                self.events += events;
                self.checked
                    .push((cell.seed, cell.benchmark, cell.policy, cycles));
            }
            Some((cycles, _)) => {
                eprintln!(
                    "fig4-stream: {key:?} gave {cycles} refresh-busy cycles, golden {:?}",
                    golden.get(&key)
                );
                self.failed += 1;
            }
            None => self.failed += 1,
        }
    }

    /// |mean VRL-Access reduction vs RAIDR − the paper's 34 %|, in
    /// percentage points, over every benchmark at the reference seed.
    fn ref_error_pct(&self) -> f64 {
        let cycles = |seed, bench, kind| {
            self.checked
                .iter()
                .find(|c| c.0 == seed && c.1 == bench && c.2 == kind)
                .map(|c| c.3 as f64)
        };
        let reductions: Vec<f64> = self
            .checked
            .iter()
            .filter(|c| c.0 == REFERENCE_SEED && c.2 == PolicyKind::Raidr)
            .filter_map(|c| {
                let access = cycles(c.0, c.1, PolicyKind::VrlAccess)?;
                Some(100.0 * (1.0 - access / c.3 as f64))
            })
            .collect();
        let mean = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
        (mean - PAPER_VRL_ACCESS_REDUCTION_PCT).abs()
    }
}

fn cells(experiments: &[(u64, Experiment)]) -> Vec<Cell<'_>> {
    experiments
        .iter()
        .flat_map(|(seed, experiment)| {
            WorkloadSpec::BENCHMARKS.iter().flat_map(move |&benchmark| {
                POLICIES.iter().map(move |&policy| Cell {
                    experiment,
                    seed: *seed,
                    benchmark,
                    policy,
                })
            })
        })
        .collect()
}

/// One cell as the product path runs it: streamed trace into the
/// single-bank engine. Returns (refresh-busy cycles, events).
fn run_cell(cell: &Cell<'_>) -> Option<(u64, u64)> {
    let stats = cell
        .experiment
        .run_policy(cell.policy, cell.benchmark)
        .ok()?;
    Some((black_box(stats.refresh_busy_cycles), stats.events()))
}

/// The same cell split at the layer boundaries: trace generation, the
/// engine over the materialized trace, and the metrics snapshot.
fn run_cell_traced(cell: &Cell<'_>, spans: &mut Spans, records: &mut u64) -> Option<(u64, u64)> {
    let trace = spans
        .time("trace.gen", |_| {
            cell.experiment.materialize_trace(cell.benchmark)
        })
        .ok()?;
    *records += trace.len() as u64;
    let stats = spans.time("dram.sim", |_| {
        cell.experiment
            .run_policy_with(cell.policy, trace.iter().copied(), &mut NopObserver)
    });
    spans.time("obs.snapshot", |_| black_box(sim_metrics(&stats).to_json()));
    Some((stats.refresh_busy_cycles, stats.events()))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let golden = golden::fig4(golden::FIG4)?;
    let seeds = run_seeds(&mut SeedRng::new(seed), SEEDS_PER_RUN);

    let mut probe = HostProbe::new();
    let mut setup_s = Vec::new();
    let mut experiments = Vec::new();
    for _ in 0..SETUP_REPEATS {
        experiments.clear();
        for &s in &seeds {
            let start = Instant::now();
            experiments.push((s, Experiment::new(config(s))));
            setup_s.push(start.elapsed().as_secs_f64());
            probe.tick();
        }
    }
    let cells = cells(&experiments);

    let mut job_ms = Vec::new();
    let (mut failed, mut events) = (0, 0);
    let mut tally = Tally::default();
    let mut sampling_ms = 0.0;
    let start = Instant::now();
    for _ in 0..passes(seconds, REFERENCE_PASS_S, 1) {
        tally = Tally::default();
        for cell in &cells {
            let t = Instant::now();
            let outcome = run_cell(cell);
            job_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(&golden, cell, outcome);
            sampling_ms += probe.tick();
        }
        failed += tally.failed;
        events += tally.events;
    }
    let wall_s = start.elapsed().as_secs_f64() - sampling_ms / 1e3;
    let passes = job_ms.len() / cells.len();

    let layers = if traced {
        let untraced = Phase {
            wall_ms: wall_s * 1e3 / passes as f64,
            host_factor: probe.factor(),
        };
        Some(trace_pass(&seeds, &cells, &golden, untraced)?)
    } else {
        None
    };

    Ok(Run {
        setup_s,
        wall_s,
        attempted: job_ms.len() as u64,
        failed,
        events: events as f64,
        job_ms,
        ref_error_pct: tally.ref_error_pct(),
        probe,
        layers,
    })
}

/// One traced pass over the same cells, plus the set-up layers timed
/// outside it.
fn trace_pass(
    seeds: &[u64],
    cells: &[Cell<'_>],
    golden: &Fig4Golden,
    untraced: Phase,
) -> Result<LayerReport, String> {
    let mut setup = Spans::default();
    for &s in seeds {
        let config = config(s);
        let profile = setup.time("retention.profile", |_| config.build_profile());
        black_box(setup.time("core.plan", |_| config.build_plan(&profile)));
    }
    let mut spans = Spans::default();
    let mut records = 0;
    let mut tally = Tally::default();
    let (mut probe, mut sampling_ms) = (HostProbe::new(), 0.0);
    let start = Instant::now();
    for cell in cells {
        let outcome = run_cell_traced(cell, &mut spans, &mut records);
        tally.record(golden, cell, outcome);
        sampling_ms += probe.tick();
    }
    let traced = Phase {
        wall_ms: start.elapsed().as_secs_f64() * 1e3 - sampling_ms,
        host_factor: probe.factor(),
    };
    if tally.failed > 0 {
        return Err(format!(
            "{} traced cells disagree with the golden file",
            tally.failed
        ));
    }
    let mut report = LayerReport::new(&spans, traced, untraced);
    report.set("retention.profile_ms", setup.ms("retention.profile"));
    report.set("core.plan_ms", setup.ms("core.plan"));
    report.set("trace.records", records as f64);
    report.set(
        "trace.ns_per_record",
        spans.get("trace.gen").self_ns as f64 / records.max(1) as f64,
    );
    report.set_per_event(&spans, "dram.sim", tally.events);
    Ok(report)
}
