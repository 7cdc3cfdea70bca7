//! `circuit-validate`: transient SPICE solves against the analytical
//! model, the only workload that runs `vrl-spice` and `vrl-circuit`.
//!
//! Each pass solves Table 1's six bank geometries at every coupling
//! window from 3 up to the product window (9 bitlines for 32-column
//! banks, 17 for 128-column ones), plus the Figure 5 equalization, in an
//! order drawn from `--seed`. Windows 1 and 2 are left out: they trip a
//! known indexing defect in `measure_presensing` (see README.md).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vrl_circuit::charge_sharing::ChargeSharingModel;
use vrl_circuit::equalization::EqualizationModel;
use vrl_circuit::model::AnalyticalModel;
use vrl_circuit::single_cell::SingleCellModel;
use vrl_circuit::tech::{BankGeometry, Technology};
use vrl_circuit::validation::{compare_equalization, measure_presensing};
use vrl_spice::circuits::{charge_sharing_array, equalization_circuit};
use vrl_spice::waveform::CrossingDirection;
use vrl_spice::TransientSpec;

use crate::golden::{self, CircuitGolden, Solve};
use crate::host::HostProbe;
use crate::layers::{LayerReport, Phase};
use crate::spans::Spans;
use crate::{passes, Run, SeedRng};

/// EXPERIMENTS.md Table 1 at the product windows:
/// (rows, cols, SPICE cycles, our model's cycles).
pub const TABLE1: [(usize, usize, usize, usize); 6] = [
    (2048, 32, 8, 7),
    (2048, 128, 8, 8),
    (8192, 32, 9, 8),
    (8192, 128, 10, 9),
    (16384, 32, 13, 12),
    (16384, 128, 14, 13),
];
/// Smallest coupling window `measure_presensing` handles.
const MIN_WINDOW: usize = 3;
/// Every run makes at least this many passes, so a run holds ≥ 100 jobs.
const MIN_PASSES: usize = 2;
/// One pass on the reference host.
const REFERENCE_PASS_S: f64 = 9.4;
/// Figure 5's equalization: simulated span, model sample points, and the
/// transient steps `compare_equalization` takes over the span.
const EQ_DURATION_S: f64 = 2e-9;
const EQ_POINTS: usize = 100;
const EQ_STEPS: usize = 2000;
/// Set-up is microseconds, so each sample times this many builds.
const SETUP_BATCH: usize = 100_000;
const SETUP_SAMPLES: usize = 15;

/// The bitline window Table 1 simulates for a geometry.
pub fn product_window(cols: usize) -> usize {
    if cols >= 128 {
        17
    } else {
        9
    }
}

/// Every (geometry, window) a pass solves.
pub fn solve_pool() -> Vec<(BankGeometry, usize)> {
    BankGeometry::table1_configs()
        .into_iter()
        .flat_map(|g| (MIN_WINDOW..=product_window(g.cols)).map(move |w| (g, w)))
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Job {
    Presense(BankGeometry, usize),
    Equalize,
}

fn jobs(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = solve_pool()
        .into_iter()
        .map(|(g, w)| Job::Presense(g, w))
        .collect();
    jobs.push(Job::Equalize);
    SeedRng::new(seed).shuffle(&mut jobs);
    jobs
}

/// A solve's checked outcome: transient steps, and the (SPICE, ours)
/// cycles of a product-window solve.
struct Solved {
    steps: usize,
    table1: Option<(usize, usize)>,
}

fn golden_solve(golden: &CircuitGolden, g: BankGeometry, window: usize) -> Result<Solve, String> {
    golden
        .get(&(g.rows, g.cols, window))
        .copied()
        .ok_or_else(|| format!("no golden solve for {g} window {window}"))
}

/// Equalization passes when the two-phase model tracks the transient
/// reference better than the single-cell model, within 60 mV RMS.
fn equalization_ok(two_phase_rms: f64, single_cell_rms: f64) -> bool {
    two_phase_rms < single_cell_rms && two_phase_rms < 0.06
}

/// One job through the product API, `None` when it errors, panics or
/// disagrees with the golden file.
fn run_job(tech: &Technology, golden: &CircuitGolden, job: Job) -> Option<Solved> {
    match job {
        Job::Presense(g, window) => {
            let row = catch_unwind(AssertUnwindSafe(|| measure_presensing(tech, g, window)));
            let row = row.ok()?.ok()?;
            let want = golden_solve(golden, g, window).ok()?;
            let got = (row.spice_cycles, row.our_cycles);
            let table1 = TABLE1
                .iter()
                .find(|t| (t.0, t.1) == (g.rows, g.cols) && window == product_window(g.cols))
                .map(|t| (t.2, t.3));
            if got != (want.spice_cycles, want.our_cycles) || table1.is_some_and(|t| t != got) {
                eprintln!("circuit-validate: {g} window {window} gave {got:?}, golden {want:?}");
                return None;
            }
            Some(Solved {
                steps: want.steps,
                table1,
            })
        }
        Job::Equalize => {
            let cmp = catch_unwind(AssertUnwindSafe(|| {
                compare_equalization(tech, EQ_DURATION_S, EQ_POINTS)
            }));
            let cmp = cmp.ok()?.ok()?;
            equalization_ok(cmp.two_phase_rms(), cmp.single_cell_rms()).then_some(Solved {
                steps: EQ_STEPS,
                table1: None,
            })
        }
    }
}

/// Maximum model-vs-SPICE error over Table 1's rows, in percent.
fn max_error_pct(rows: &[(usize, usize)]) -> f64 {
    rows.iter()
        .map(|&(spice, ours)| 100.0 * (ours as f64 - spice as f64).abs() / spice as f64)
        .fold(0.0, f64::max)
}

fn setup_sample() -> f64 {
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        let tech = black_box(Technology::n90());
        black_box(AnalyticalModel::new(tech));
    }
    start.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let golden = golden::circuit(golden::CIRCUIT)?;
    let mut probe = HostProbe::new();
    let setup_s: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let sample = setup_sample();
            probe.tick();
            sample
        })
        .collect();
    let tech = Technology::n90();
    let jobs = jobs(seed);

    let (mut job_ms, mut steps, mut failed) = (Vec::new(), 0, 0);
    let mut table1 = Vec::new();
    let mut sampling_ms = 0.0;
    let start = Instant::now();
    for _ in 0..passes(seconds, REFERENCE_PASS_S, MIN_PASSES) {
        for &job in &jobs {
            let t = Instant::now();
            let solved = run_job(&tech, &golden, job);
            job_ms.push(t.elapsed().as_secs_f64() * 1e3);
            sampling_ms += probe.tick();
            match solved {
                Some(s) => {
                    steps += s.steps;
                    table1.extend(s.table1);
                }
                None => failed += 1,
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64() - sampling_ms / 1e3;
    let passes = job_ms.len() / jobs.len();

    let layers = if traced {
        let untraced = Phase {
            wall_ms: wall_s * 1e3 / passes as f64,
            host_factor: probe.factor(),
        };
        Some(trace_pass(&tech, &golden, &jobs, untraced)?)
    } else {
        None
    };
    Ok(Run {
        setup_s,
        wall_s,
        attempted: job_ms.len() as u64,
        job_ms,
        failed,
        events: steps as f64,
        ref_error_pct: max_error_pct(&table1),
        probe,
        layers,
    })
}

/// A pre-sensing solve split at the layer boundaries, exactly as
/// `measure_presensing` computes it. Returns (SPICE, ours) cycles and the
/// solve's size.
pub fn presense_traced(
    tech: &Technology,
    g: BankGeometry,
    window: usize,
    spans: &mut Spans,
) -> Result<Solve, String> {
    let (horizon, model) = spans.time("circuit.model", |_| {
        let model = ChargeSharingModel::new(tech, g);
        ((model.settling_time(0.995) * 2.0).max(2e-9), model)
    });
    let (ckt, nodes, victim) = spans.time("circuit.netlist_build", |_| {
        let params = tech.to_spice_params(g);
        let n = window.min(g.cols).max(1);
        let pattern: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let victim = n / 2 - (n / 2 + 1) % 2;
        let victim = if pattern[victim] { victim } else { victim + 1 };
        let (ckt, nodes) = charge_sharing_array(&params, &pattern, 1e-12);
        (ckt, nodes, victim)
    });
    let (spice_cycles, steps) = spans.time("spice.transient", |_| {
        let result = ckt
            .run_transient(TransientSpec::new(horizon / 4000.0, horizon))
            .map_err(|e| e.to_string())?;
        let wf = result.waveform(nodes.bitlines[victim]);
        let v_eq = tech.veq();
        let target = v_eq + 0.95 * (wf.last_value() - v_eq);
        let t95 = wf
            .first_crossing(target, CrossingDirection::Rising)
            .unwrap_or(horizon);
        Ok::<_, String>((
            (t95 / tech.tck_presense).ceil() as usize,
            result.times().len() - 1,
        ))
    })?;
    let our_cycles = spans.time("circuit.model", |_| {
        black_box(SingleCellModel::new(tech).presensing_cycles(tech));
        model.presensing_cycles(tech)
    });
    Ok(Solve {
        spice_cycles,
        our_cycles,
        steps,
        nodes: ckt.node_count(),
    })
}

/// Figure 5's equalization split at the layer boundaries, as
/// `compare_equalization` computes it. Returns (two-phase RMS,
/// single-cell RMS) and the solve's size.
fn equalize_traced(
    tech: &Technology,
    spans: &mut Spans,
) -> Result<(f64, f64, usize, usize), String> {
    let seg = BankGeometry::operational_segment();
    let (ckt, nodes) = spans.time("circuit.netlist_build", |_| {
        equalization_circuit(&tech.to_spice_params(seg), 1e-12)
    });
    let (spice_bl, steps) = spans.time("spice.transient", |_| {
        let step = EQ_DURATION_S / EQ_STEPS as f64;
        let result = ckt
            .run_transient(TransientSpec::new(step, EQ_DURATION_S))
            .map_err(|e| e.to_string())?;
        let wf = result.waveform(nodes.bl);
        let samples: Vec<f64> = times().map(|t| wf.sample(t)).collect();
        Ok::<_, String>((samples, result.times().len() - 1))
    })?;
    let (two_phase, single) = spans.time("circuit.model", |_| {
        let two_phase = EqualizationModel::new(tech, seg);
        let single = SingleCellModel::new(tech);
        let two: Vec<f64> = times().map(|t| two_phase.bl_voltage(t)).collect();
        let one: Vec<f64> = times()
            .map(|t| single.equalization_voltage(tech.vdd, t))
            .collect();
        (rms(&two, &spice_bl), rms(&one, &spice_bl))
    });
    Ok((two_phase, single, steps, ckt.node_count()))
}

fn times() -> impl Iterator<Item = f64> {
    (0..=EQ_POINTS).map(|i| EQ_DURATION_S * i as f64 / EQ_POINTS as f64)
}

fn rms(a: &[f64], b: &[f64]) -> f64 {
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len().min(b.len()) as f64).sqrt()
}

fn trace_pass(
    tech: &Technology,
    golden: &CircuitGolden,
    jobs: &[Job],
    untraced: Phase,
) -> Result<LayerReport, String> {
    let mut spans = Spans::default();
    let (mut steps, mut nodes) = (0, 0);
    let (mut probe, mut sampling_ms) = (HostProbe::new(), 0.0);
    let start = Instant::now();
    for &job in jobs {
        match job {
            Job::Presense(g, window) => {
                let solve = presense_traced(tech, g, window, &mut spans)?;
                if solve != golden_solve(golden, g, window)? {
                    return Err(format!("traced {g} window {window} gave {solve:?}"));
                }
                steps += solve.steps;
                nodes += solve.nodes;
            }
            Job::Equalize => {
                let (two_phase, single, eq_steps, eq_nodes) = equalize_traced(tech, &mut spans)?;
                if !equalization_ok(two_phase, single) || eq_steps != EQ_STEPS {
                    return Err(format!("traced equalization: rms {two_phase} vs {single}"));
                }
                steps += eq_steps;
                nodes += eq_nodes;
            }
        }
        sampling_ms += probe.tick();
    }
    let traced = Phase {
        wall_ms: start.elapsed().as_secs_f64() * 1e3 - sampling_ms,
        host_factor: probe.factor(),
    };
    let solves = jobs.len() as f64;
    let mut report = LayerReport::new(&spans, traced, untraced);
    let per_solve_us = |layer| spans.get(layer).self_ns as f64 / 1e3 / solves;
    report.set(
        "circuit.netlist_build_us",
        per_solve_us("circuit.netlist_build"),
    );
    report.set("circuit.model_us", per_solve_us("circuit.model"));
    report.set("spice.steps", steps as f64);
    report.set("spice.nodes", nodes as f64 / solves);
    report.set(
        "spice.us_per_step",
        spans.get("spice.transient").self_ns as f64 / 1e3 / steps as f64,
    );
    Ok(report)
}
