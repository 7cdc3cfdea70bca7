//! Hot-loop meter: replays materialized traces through the engines and
//! prints wall time per event, with trace generation outside the timed
//! region, and times the Figure 4 cell's two layers.
//!
//! The Figure 4 section runs fig4-stream's cell geometry (8192 rows,
//! 256 ms, 14 benchmarks × RAIDR/VRL/VRL-Access over a generated
//! retention profile) three ways: the trace generator alone (ns/record),
//! `dram::sim` over the materialized trace (ns/event), and the streamed
//! cell, generation into `dram::sim`, as Figure 4 runs it (ns/record).
//!
//! The next section replays serve-cold's seven benchmarks at its
//! geometry (512 rows, 64 ms) through every engine in one process:
//! `dram::sim`, `FrFcfsController` (depth 8), the scheduler at 8 banks
//! and as one whole 2 × 2 × 4 DIMM (as the daemon runs it), and the
//! scheduler's 1-bank degenerate preset
//! (parallelization off, slack 0, depth 8), and the guarded faulted
//! front end: `dram::sim` under the default fault scenario with the
//! runtime guard sensing every refresh and activation. Its charge
//! physics is linear at the n90 full level and sensing threshold (the
//! analytical model lives above this crate), which costs the same per
//! event. Ratios against `dram::sim` cancel host drift. The section ends with each scheduler preset's
//! queue traffic: its deepest queue, the share of picks that took a
//! younger request over the oldest, and its queue stalls. The later
//! sections compare the SoA scheduler with the reference engine on a
//! bursty full-DIMM trace and on PARSEC traces.
//!
//! Besides its identity assertions (streamed ≡ replayed Figure 4 cell,
//! 1-bank preset ≡ FR-FCFS, SoA ≡ reference), the meter has two timing
//! gates, each a ratio of engines timed in this process over the same
//! traces, so neither depends on the host's absolute speed: the
//! whole-DIMM scheduler's ns/event at serve-cold geometry stays under
//! [`MAX_DIMM_OVER_SIM`] × `dram::sim`'s, and the SoA scheduler runs the
//! PARSEC full-DIMM section at ≥ [`MIN_SOA_SPEEDUP`] × the reference
//! engine's events/s. A breach exits non-zero.
//!
//! Run with `cargo run --release -p vrl-sched --example hotloop`.

use std::hint::black_box;
use std::time::Instant;

use vrl_dram_sim::integrity::LinearPhysics;
use vrl_dram_sim::policy::{Raidr, RefreshPolicy, Vrl, VrlAccess};
use vrl_dram_sim::{
    FaultConfig, FaultInjector, FrFcfsController, Guard, GuardConfig, SimConfig, SimStats,
    Simulator, TimingParams,
};
use vrl_retention::binning::BinningTable;
use vrl_retention::profile::BankProfile;
use vrl_retention::RetentionDistribution;
use vrl_sched::{ReferenceScheduler, SchedConfig, SchedStats, Scheduler};
use vrl_trace::{Op, TraceRecord, Workload, WorkloadSpec};

/// serve-cold's benchmarks, from tiny to full-memory footprints.
const COLD_BENCHMARKS: [&str; 7] = [
    "blackscholes",
    "swaptions",
    "raytrace",
    "facesim",
    "ferret",
    "canneal",
    "bgsave",
];
const COLD_ROWS: u32 = 512;
const COLD_MS: f64 = 64.0;
const COLD_SEED: u64 = 42;
/// Timed runs per (engine, benchmark); the median is reported.
const REPEATS: usize = 5;
/// Ceiling on `dimm 2x2x4 / dram::sim` (ns/event) at this geometry.
/// 22 runs on a shared 2-vCPU x86-64 host read 6.9–10.8× (median
/// 8.8×); the scheduler whose admission copied every record through two
/// `VecDeque`s read 14.2×.
const MAX_DIMM_OVER_SIM: f64 = 13.0;

fn bursts(until: u64, rows: u32) -> Vec<TraceRecord> {
    const GAP: u64 = 1 << 18;
    const BURST_LEN: u64 = 256;
    let mut records = Vec::new();
    let mut cycle = 0u64;
    let mut row = 0u32;
    while cycle < until {
        for i in 0..BURST_LEN {
            let op = if i % 3 == 0 { Op::Write } else { Op::Read };
            records.push(TraceRecord::new(cycle + i * 4, op, row % rows));
            row = row.wrapping_add(7);
        }
        cycle += GAP;
    }
    records
}

/// Per-row retention of the synthetic profile: 64, 128, 256, 256 ms.
fn retention(rows: usize) -> Vec<f64> {
    (0..rows)
        .map(|r| match r % 4 {
            0 => 64.0,
            1 => 128.0,
            _ => 256.0,
        })
        .collect()
}

fn vrl_access(rows: usize) -> VrlAccess {
    let bins = BinningTable::from_profile(&BankProfile::from_rows(retention(rows), 32));
    let mprsf = (0..rows).map(|r| (r % 4) as u8).collect();
    VrlAccess::new(bins, mprsf)
}

/// One engine of the serve-cold section: its label and a run over a
/// trace with a fresh policy, construction included in the timing.
struct Engine {
    label: &'static str,
    run: fn(&[TraceRecord]) -> Run,
}

/// One run's statistics and, for the scheduler presets, its queue
/// traffic: `(max_queue_depth, reordered, queue_stalls)`.
struct Run {
    sim: SimStats,
    traffic: Option<(usize, u64, u64)>,
}

impl From<SimStats> for Run {
    fn from(sim: SimStats) -> Self {
        Run { sim, traffic: None }
    }
}

impl From<SchedStats> for Run {
    fn from(stats: SchedStats) -> Self {
        Run {
            traffic: Some((stats.max_queue_depth, stats.reordered, stats.queue_stalls)),
            sim: stats.sim,
        }
    }
}

fn cold_policy() -> VrlAccess {
    vrl_access(COLD_ROWS as usize)
}

fn run_sim(trace: &[TraceRecord]) -> Run {
    Simulator::new(SimConfig::with_rows(COLD_ROWS), cold_policy())
        .run(trace.iter().copied(), COLD_MS)
        .into()
}

/// The n90 technology's full-refresh level and sensing threshold.
const N90: LinearPhysics = LinearPhysics {
    full: 0.957_931_227_620_196_2,
    partial_gain: 0.5,
    threshold: 0.611_108_321_423_527_6,
};

/// A served guarded faulted job: serve-cold's fault seed for seed 42.
fn run_faulted(trace: &[TraceRecord]) -> Run {
    let timing = TimingParams::paper_default();
    let faults = FaultConfig::default_scenario(COLD_SEED ^ 0x5eed);
    let injector = FaultInjector::new(faults, &retention(COLD_ROWS as usize), timing);
    let true_retention = injector.true_retention();
    let mut guard = Guard::new(N90, timing, true_retention, GuardConfig::default());
    let mut sim = Simulator::new(SimConfig::with_rows(COLD_ROWS), cold_policy());
    sim.set_fault_injector(injector);
    sim.run_guarded(trace.iter().copied(), COLD_MS, &mut guard)
        .into()
}

fn run_frfcfs(trace: &[TraceRecord]) -> Run {
    FrFcfsController::new(SimConfig::with_rows(COLD_ROWS), cold_policy(), 8)
        .expect("depth")
        .run(trace.iter().copied(), COLD_MS)
        .expect("frfcfs run")
        .sim
        .into()
}

fn run_scheduler(config: SchedConfig, trace: &[TraceRecord], policy: VrlAccess) -> SchedStats {
    Scheduler::new(config, policy)
        .expect("config")
        .run(trace.iter().copied(), COLD_MS)
        .expect("sched run")
}

fn run_bank(trace: &[TraceRecord]) -> Run {
    let config = SchedConfig::with_geometry(8, COLD_ROWS / 8).expect("geometry");
    run_scheduler(config, trace, cold_policy()).into()
}

fn run_dimm(trace: &[TraceRecord]) -> Run {
    let config = SchedConfig::with_dimm_geometry(2, 2, 4, COLD_ROWS / 16).expect("geometry");
    run_scheduler(config, trace, cold_policy()).into()
}

fn run_one_bank(trace: &[TraceRecord]) -> Run {
    let config = SchedConfig::with_geometry(1, COLD_ROWS)
        .expect("geometry")
        .with_parallelism(false)
        .with_slack(0)
        .with_queue_depth(8);
    run_scheduler(config, trace, cold_policy()).into()
}

const ENGINES: [Engine; 6] = [
    Engine {
        label: "dram::sim",
        run: run_sim,
    },
    Engine {
        label: "frfcfs d8",
        run: run_frfcfs,
    },
    Engine {
        label: "sched 8bk",
        run: run_bank,
    },
    Engine {
        label: "dimm 2x2x4",
        run: run_dimm,
    },
    Engine {
        label: "sched 1bk",
        run: run_one_bank,
    },
    Engine {
        label: "faulted",
        run: run_faulted,
    },
];

/// Median wall seconds of `repeats` runs, and the last run's result.
fn median_secs<T>(repeats: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(repeats);
    let mut out = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        out = Some(run());
        walls.push(t0.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    (walls[repeats / 2], out.expect("at least one run"))
}

/// Median wall seconds of [`REPEATS`] runs, and the last run's stats.
fn median_run(engine: &Engine, trace: &[TraceRecord]) -> (f64, Run) {
    median_secs(REPEATS, || (engine.run)(trace))
}

/// fig4-stream's cell: the paper's bank over half the paper's horizon.
const FIG4_ROWS: u32 = 8192;
const FIG4_MS: f64 = 256.0;
/// Timed runs per (layer, benchmark, policy) at Figure 4 scale.
const FIG4_REPEATS: usize = 3;

/// Wall seconds of the Figure 4 layers, summed over cells.
#[derive(Default)]
struct Fig4Walls {
    generate: f64,
    simulate: f64,
    streamed: f64,
}

/// Times one policy's cell over `workload`: `dram::sim` over the
/// materialized `trace`, and the streamed cell, which must agree.
fn fig4_cell<P: RefreshPolicy + Clone>(
    policy: &P,
    workload: &Workload,
    trace: &[TraceRecord],
    walls: &mut Fig4Walls,
) -> u64 {
    let sim = || Simulator::new(SimConfig::with_rows(FIG4_ROWS), policy.clone());
    let (secs, replayed) = median_secs(FIG4_REPEATS, || sim().run(trace.iter().copied(), FIG4_MS));
    walls.simulate += secs;
    let (secs, streamed) = median_secs(FIG4_REPEATS, || {
        sim().run(workload.records(FIG4_MS), FIG4_MS)
    });
    walls.streamed += secs;
    assert_eq!(streamed, replayed, "streamed and replayed cells diverged");
    streamed.events()
}

fn figure4() {
    println!(
        "Figure 4 cell: {FIG4_ROWS} rows, {FIG4_MS} ms, seed {COLD_SEED}, 14 benchmarks x \
         RAIDR/VRL/VRL-Access; median of {FIG4_REPEATS} runs"
    );
    let profile = BankProfile::generate(
        &RetentionDistribution::liu_et_al(),
        FIG4_ROWS as usize,
        32,
        COLD_SEED,
    );
    let bins = BinningTable::from_profile(&profile);
    let mprsf: Vec<u8> = (0..FIG4_ROWS).map(|r| (r % 4) as u8).collect();
    let raidr = Raidr::new(bins.clone());
    let vrl = Vrl::new(bins.clone(), mprsf.clone());
    let vrl_access = VrlAccess::new(bins, mprsf);
    let mut walls = Fig4Walls::default();
    let (mut records, mut events) = (0u64, 0u64);
    for benchmark in WorkloadSpec::BENCHMARKS {
        let spec = WorkloadSpec::parsec(benchmark).expect("benchmark");
        let workload = Workload::new(spec, FIG4_ROWS, COLD_SEED);
        let (secs, digest) = median_secs(FIG4_REPEATS, || {
            workload
                .records(FIG4_MS)
                .fold(0u64, |acc, r| acc.wrapping_add(r.cycle ^ u64::from(r.row)))
        });
        black_box(digest);
        // Three cells stream the trace once each.
        walls.generate += 3.0 * secs;
        let trace: Vec<TraceRecord> = workload.records(FIG4_MS).collect();
        records += 3 * trace.len() as u64;
        events += fig4_cell(&raidr, &workload, &trace, &mut walls);
        events += fig4_cell(&vrl, &workload, &trace, &mut walls);
        events += fig4_cell(&vrl_access, &workload, &trace, &mut walls);
    }
    let gen_ns = walls.generate * 1e9 / records as f64;
    let sim_ns = walls.simulate * 1e9 / events as f64;
    let streamed_ns = walls.streamed * 1e9 / records as f64;
    println!(
        "trace.gen {gen_ns:.1} ns/record, dram::sim {sim_ns:.1} ns/event, \
         streamed cell {streamed_ns:.1} ns/record"
    );
    println!(
        "shares of the two layers timed apart: trace.gen {:.0} %, dram::sim {:.0} % \
         ({records} records, {events} events)",
        100.0 * walls.generate / (walls.generate + walls.simulate),
        100.0 * walls.simulate / (walls.generate + walls.simulate),
    );
}

fn serve_cold() {
    println!(
        "serve-cold geometry: {COLD_ROWS} rows, {COLD_MS} ms, seed {COLD_SEED}; \
         median of {REPEATS} runs, ns/event"
    );
    let header: Vec<String> = ENGINES.iter().map(|e| format!("{:>11}", e.label)).collect();
    println!("{:<13}{}", "benchmark", header.join(""));
    let mut wall = [0.0f64; ENGINES.len()];
    let mut events = [0u64; ENGINES.len()];
    // Per engine: picks (accesses), then the summed queue traffic.
    let mut picks = [0u64; ENGINES.len()];
    let mut traffic: [Option<(usize, u64, u64)>; ENGINES.len()] = [None; ENGINES.len()];
    for benchmark in COLD_BENCHMARKS {
        let spec = WorkloadSpec::parsec(benchmark).expect("benchmark");
        let trace: Vec<TraceRecord> = Workload::new(spec, COLD_ROWS, COLD_SEED)
            .records(COLD_MS)
            .collect();
        let mut cells = Vec::with_capacity(ENGINES.len());
        let mut runs = Vec::with_capacity(ENGINES.len());
        for (i, engine) in ENGINES.iter().enumerate() {
            let (secs, run) = median_run(engine, &trace);
            let stats = run.sim;
            wall[i] += secs;
            events[i] += stats.events();
            picks[i] += stats.accesses;
            if let Some((depth, reordered, stalls)) = run.traffic {
                let t = traffic[i].get_or_insert((0, 0, 0));
                *t = (t.0.max(depth), t.1 + reordered, t.2 + stalls);
            }
            cells.push(format!("{:>11.0}", secs * 1e9 / stats.events() as f64));
            runs.push(stats);
        }
        // The degeneracy contract: the 1-bank preset decides exactly
        // as FR-FCFS does.
        assert_eq!(runs[4], runs[1], "1-bank preset diverged from FR-FCFS");
        println!("{benchmark:<13}{}", cells.join(""));
    }
    let ns: Vec<f64> = (0..ENGINES.len())
        .map(|i| wall[i] * 1e9 / events[i] as f64)
        .collect();
    let total: Vec<String> = ns.iter().map(|v| format!("{v:>11.0}")).collect();
    println!("{:<13}{}", "all", total.join(""));
    println!(
        "ratios: sched 8bk / sim {:.2}x, dimm / sim {:.2}x, frfcfs / sim {:.2}x, \
         sched 1bk / frfcfs {:.2}x, faulted / sim {:.2}x",
        ns[2] / ns[0],
        ns[3] / ns[0],
        ns[1] / ns[0],
        ns[4] / ns[1],
        ns[5] / ns[0],
    );
    let dimm_over_sim = ns[3] / ns[0];
    assert!(
        dimm_over_sim <= MAX_DIMM_OVER_SIM,
        "dimm / sim {dimm_over_sim:.2}x exceeds the {MAX_DIMM_OVER_SIM}x ceiling"
    );
    // The scheduler presets' queue traffic over all seven benchmarks.
    for ((engine, traffic), picks) in ENGINES.iter().zip(traffic).zip(picks) {
        let Some((depth, reordered, stalls)) = traffic else {
            continue;
        };
        println!(
            "{:<11} max queue depth {depth}, reordered {reordered} of {} picks ({:.3} %), \
             queue stalls {stalls}",
            engine.label,
            picks,
            100.0 * reordered as f64 / picks as f64,
        );
    }
}

/// Full-DIMM passes per trace; the SoA gate reads their medians.
const PASSES: usize = 3;
/// Floor on the SoA scheduler's events/s over the reference engine's.
const MIN_SOA_SPEEDUP: f64 = 2.0;

/// Times [`PASSES`] SoA and reference runs over `trace`, checks they
/// agree, and returns the median SoA and reference wall seconds.
fn measure<P: RefreshPolicy, F: Fn() -> P>(
    label: &str,
    config: SchedConfig,
    trace: &[TraceRecord],
    duration_ms: f64,
    make_policy: F,
) -> (f64, f64) {
    let mut soa_walls = Vec::with_capacity(PASSES);
    let mut reference_walls = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let mut engine = Scheduler::new(config, make_policy()).expect("config");
        let soa = engine
            .run(trace.iter().copied(), duration_ms)
            .expect("soa run");
        let soa_wall = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut engine = ReferenceScheduler::new(config, make_policy()).expect("config");
        let reference = engine
            .run(trace.iter().copied(), duration_ms)
            .expect("reference run");
        let reference_wall = t0.elapsed().as_secs_f64();

        assert_eq!(soa, reference, "engines diverged");
        let events = soa.sim.events();
        println!(
            "{label}: {events} events, soa {:.3}s ({:.0} ns/ev), reference {:.3}s \
             ({:.0} ns/ev), ratio {:.2}x",
            soa_wall,
            soa_wall * 1e9 / events as f64,
            reference_wall,
            reference_wall * 1e9 / events as f64,
            reference_wall / soa_wall,
        );
        soa_walls.push(soa_wall);
        reference_walls.push(reference_wall);
    }
    soa_walls.sort_by(f64::total_cmp);
    reference_walls.sort_by(f64::total_cmp);
    (soa_walls[PASSES / 2], reference_walls[PASSES / 2])
}

fn main() {
    figure4();
    serve_cold();

    let duration_ms = 192.0;
    let config = SchedConfig::with_dimm_geometry(2, 2, 16, 16)
        .expect("geometry")
        .with_parallelism(true);
    let end = config.timing.ms_to_cycles(duration_ms);
    let trace = bursts(end, config.total_rows());
    let rows = config.total_rows() as usize;
    measure("bursty/vrl-access", config, &trace, duration_ms, || {
        vrl_access(rows)
    });

    let duration_ms = 128.0;
    let rows = 1024u32;
    let config = SchedConfig::with_dimm_geometry(2, 2, 16, rows / 64).expect("geometry");
    let (mut soa_wall, mut reference_wall) = (0.0, 0.0);
    for benchmark in ["canneal", "ferret", "streamcluster"] {
        let spec = WorkloadSpec::parsec(benchmark).expect("benchmark");
        let trace: Vec<TraceRecord> = Workload::new(spec, rows, 42).records(duration_ms).collect();
        let (soa, reference) = measure(benchmark, config, &trace, duration_ms, || {
            vrl_access(rows as usize)
        });
        soa_wall += soa;
        reference_wall += reference;
    }
    // Both engines serve the same events, so the wall ratio is the
    // events/s ratio.
    let soa_speedup = reference_wall / soa_wall;
    println!(
        "full DIMM: SoA at {soa_speedup:.2}x the reference engine's events/s \
         (median of {PASSES} passes)"
    );
    assert!(
        soa_speedup >= MIN_SOA_SPEEDUP,
        "SoA scheduler at {soa_speedup:.2}x the reference engine (floor {MIN_SOA_SPEEDUP}x)"
    );
}
