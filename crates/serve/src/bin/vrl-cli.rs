//! `vrl` — command-line front end to the VRL-DRAM model and simulator.
//!
//! ```text
//! vrl model                         # technology + refresh-latency summary
//! vrl mprsf <retention_ms> [period_ms]
//! vrl plan [--rows N] [--seed S] [--nbits B]
//! vrl simulate <benchmark> [--rows N] [--duration-ms D] [--policy P]
//!              [--checkpoint FILE --checkpoint-every N [--halt-after K]]
//!              [--resume FILE]
//! vrl compare [--rows N] [--duration-ms D] [--threads T] [--metrics FILE]
//!             [--manifest FILE]
//! vrl sched <benchmark> [--rows N] [--channels C] [--ranks R] [--banks B]
//!           [--duration-ms D] [--policy P] [--no-parallel] [--metrics FILE]
//!           [--checkpoint FILE --checkpoint-every N [--halt-after K]]
//!           [--resume FILE]
//! vrl trace <benchmark> [--policy P] [--rows N] [--channels C] [--ranks R]
//!           [--banks B] [--duration-ms D] [--out FILE] [--metrics FILE]
//!           [--validate]
//!           [--checkpoint FILE --checkpoint-every N [--halt-after K]]
//!           [--resume FILE]
//! vrl netlist <equalization|charge-sharing|sense-restore>
//! vrl serve --addr HOST:PORT [--workers N] [--span-cycles N] [--state FILE]
//! vrl submit --addr HOST:PORT --spec JSON [--quiet] [--expect-error]
//! vrl submit --direct --spec JSON
//! vrl submit --addr HOST:PORT --raw LINE [--quiet] [--expect-error]
//! vrl submit --addr HOST:PORT [--ping | --health | --stats [--raw]]
//! vrl submit --addr HOST:PORT --metrics [--format text|json] [--prefix P]
//! vrl submit --addr HOST:PORT --history [--limit N]
//! vrl submit --addr HOST:PORT --subscribe [--count N]
//! vrl submit --addr HOST:PORT --shutdown <drain|now>
//! vrl top <addr> [--interval-ms MS] [--count N] [--plain]
//! ```
//!
//! `compare` fans the (benchmark × policy) matrix across the `vrl-exec`
//! worker pool; `--threads` overrides the `VRL_THREADS` environment
//! variable, which overrides the machine's available parallelism.
//! `--manifest FILE` makes the sweep crash-consistent: completed cells
//! are persisted atomically after every benchmark, and a re-run against
//! the same manifest re-simulates only the missing ones.
//!
//! `trace` records a structured event trace of one scheduler run and
//! writes it as Chrome `trace_event` JSON — load the file in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` to see per-bank
//! activate/refresh/postpone/pull-in tracks. `--metrics` (here and on
//! `compare`/`sched`) additionally writes a flat JSON metrics snapshot.
//!
//! `--checkpoint FILE --checkpoint-every N` (single-policy runs only)
//! atomically snapshots the engine's full state to FILE every N
//! simulated cycles; `--halt-after K` stops the run after the K-th
//! snapshot, simulating a crash. `--resume FILE` restores such a
//! snapshot — the benchmark, policy, and configuration all come from the
//! snapshot header — and continues to completion, bit-identical to an
//! uninterrupted run.
//!
//! `serve` starts the simulation-as-a-service daemon (DESIGN.md §14);
//! `submit` is its thin client. `vrl submit --direct` runs the spec
//! in-process through a fresh `Experiment` and prints the same result
//! frame the daemon would serve — byte-identical, which is how CI
//! compares the two paths.
//!
//! The telemetry plane (DESIGN.md §15) rides the same socket:
//! `--health` prints the readiness report, `--metrics` the
//! Prometheus-style exposition (or the JSON frame with
//! `--format json`), `--history` replays the snapshot-delta ring, and
//! `--subscribe` tails the live job-lifecycle event stream. `--stats`
//! pretty-prints the counter snapshot as aligned `name value` lines;
//! `--stats --raw` keeps the original one-line JSON blob. `vrl top`
//! polls health + metrics into a refreshing terminal dashboard.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error (unknown
//! flag, missing or malformed value — never a silent default).

use std::num::NonZeroU32;
use std::path::Path;
use std::process::ExitCode;

use vrl_circuit::model::AnalyticalModel;
use vrl_circuit::tech::{BankGeometry, Technology};
use vrl_circuit::trfc::{CycleBudget, RefreshKind};
use vrl_dram::checkpoint::{CheckpointConfig, CheckpointOutcome};
use vrl_dram::experiment::{sched_metrics, sim_metrics, Experiment, ExperimentConfig, PolicyKind};
use vrl_dram::mprsf::{Mprsf, MprsfCalculator};
use vrl_dram::{Engine, Outcome};
use vrl_dram_sim::sim::NullObserver;
use vrl_obs::{chrome_trace_json, validate_chrome_trace, EventStream, MetricsSnapshot, Recorder};
use vrl_retention::binning::RefreshBin;
use vrl_serve::args::{
    flag_parse, flag_present, flag_require, flag_value, reject_unknown_flags, UsageError,
};
use vrl_serve::protocol::is_terminal;
use vrl_serve::{Client, Server, ServerConfig};

/// A subcommand outcome: exit code, or a usage mistake (exit code 2).
type CmdResult = Result<ExitCode, UsageError>;

/// Exit code for usage errors, following the `sysexits`/getopt
/// convention of 2 for bad invocations.
const USAGE_EXIT: u8 = 2;

/// `--rows` when absent: the paper's 8192-row bank.
const DEFAULT_ROWS: NonZeroU32 = NonZeroU32::new(8192).expect("8192 is non-zero");

/// The `--rows` flag. A bank needs at least one row to profile, so `0`
/// is a usage error like any other unparsable value.
fn rows_flag(args: &[String]) -> Result<u32, UsageError> {
    Ok(flag_parse(args, "--rows", DEFAULT_ROWS)?.get())
}

/// `config` if it is inside the bounds that the daemon and the bench
/// binaries check too ([`ExperimentConfig::validated`]); otherwise a
/// usage error naming the flag.
fn checked(config: ExperimentConfig) -> Result<ExperimentConfig, UsageError> {
    config
        .validated()
        .map_err(|e| UsageError::new(format!("--{} {}", e.field.replace('_', "-"), e.message)))
}

/// The scheduler geometry of `--channels`, `--ranks` and `--banks` over
/// `--rows`. A split the address map cannot decode is a bad invocation,
/// so it is a usage error like an out-of-bounds value.
fn geometry(
    experiment: &Experiment,
    channels: u32,
    ranks: u32,
    banks: u32,
) -> Result<vrl_sched::SchedConfig, UsageError> {
    experiment
        .dimm_config(channels, ranks, banks)
        .map_err(|e| match e {
            vrl_dram::Error::Sim(reason) => UsageError::new(reason.to_string()),
            other => UsageError::new(other.to_string()),
        })
}

fn write_metrics(path: &str, snapshot: &MetricsSnapshot) -> bool {
    match std::fs::write(path, snapshot.to_json()) {
        Ok(()) => {
            println!("metrics snapshot written to {path}");
            true
        }
        Err(err) => {
            eprintln!("error: cannot write {path}: {err}");
            false
        }
    }
}

/// Parses `--checkpoint FILE [--checkpoint-every N] [--halt-after K]`
/// into a checkpoint policy, if requested.
fn checkpoint_flags(args: &[String]) -> Result<Option<CheckpointConfig>, UsageError> {
    let Some(path) = flag_value(args, "--checkpoint")? else {
        return Ok(None);
    };
    let every: u64 = flag_parse(args, "--checkpoint-every", 1_000_000)?;
    let mut cfg = CheckpointConfig::new(path, every);
    if let Some(raw) = flag_value(args, "--halt-after")? {
        let k: u32 = raw.parse().map_err(|e| {
            UsageError::new(format!("--halt-after got an invalid value {raw:?}: {e}"))
        })?;
        cfg = cfg.with_halt_after(k);
    }
    Ok(Some(cfg))
}

/// Resolves `--policy NAME` (or the default) to the policies to run.
fn policy_flag(args: &[String], default: &str) -> Result<Vec<PolicyKind>, UsageError> {
    let name = flag_value(args, "--policy")?.unwrap_or_else(|| default.to_owned());
    match name.as_str() {
        "all" => Ok(PolicyKind::ALL.to_vec()),
        name => PolicyKind::ALL
            .iter()
            .find(|k| k.name() == name)
            .map(|k| vec![*k])
            .ok_or_else(|| {
                UsageError::new(format!(
                    "unknown policy '{name}' (auto, raidr, vrl, vrl-access, all)"
                ))
            }),
    }
}

fn print_sim_stats(policy: &str, stats: &vrl_dram::dram_sim::SimStats) {
    println!(
        "{policy:>10}: {:>10} refresh-busy cycles, {:>8} full, {:>8} partial, \
         {:>10} stall cycles",
        stats.refresh_busy_cycles,
        stats.full_refreshes,
        stats.partial_refreshes,
        stats.stall_cycles
    );
}

fn print_sched_stats(policy: &str, stats: &vrl_sched::SchedStats) {
    println!(
        "{policy:>10} {:>12} {:>12} {:>10} {:>10} {:>12} {:>8} {:>8}",
        stats.sim.refresh_busy_cycles,
        stats.refresh_blocked_cycles,
        stats.sim.postponed_refreshes,
        stats.pulled_in_refreshes,
        stats.sim.stall_cycles,
        stats.read_latency.quantile(0.5),
        stats.read_latency.quantile(0.99),
    );
}

/// A resumed run that completed: the policy, the benchmark, the
/// engine's statistics and — for traced snapshots — the event stream.
type Resumed = (PolicyKind, String, Outcome, Option<EventStream>);

/// Runs `vrl <cmd> --resume FILE`: restores the snapshot (everything
/// else comes from its header) and continues it. A run that fails or
/// halts again is reported here and comes back as its exit code.
fn run_resume(args: &[String], resume_path: &str) -> Result<Result<Resumed, ExitCode>, UsageError> {
    let cont = checkpoint_flags(args)?;
    let report = match vrl_dram::checkpoint::resume(Path::new(resume_path), cont.as_ref()) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{err}");
            return Ok(Err(ExitCode::FAILURE));
        }
    };
    println!(
        "resumed {} run of {} / {} from {resume_path}",
        report.engine.name(),
        report.benchmark,
        report.policy.name()
    );
    Ok(match report.outcome {
        CheckpointOutcome::Completed(outcome) => {
            Ok((report.policy, report.benchmark, outcome, report.events))
        }
        CheckpointOutcome::Halted { checkpoints } => {
            println!("halted again after {checkpoints} checkpoint(s)");
            Err(ExitCode::SUCCESS)
        }
    })
}

/// Runs one policy of `vrl <cmd>` on `engine`: checkpointed under
/// `ckpt` (a halt prints how to resume), plain otherwise, recording an
/// event stream when `traced`. A run that fails or halts is reported
/// here and comes back as its exit code.
fn run_fresh(
    cmd: &str,
    experiment: &Experiment,
    engine: &Engine,
    kind: PolicyKind,
    benchmark: &str,
    ckpt: Option<&CheckpointConfig>,
    traced: bool,
) -> Result<(Outcome, Option<EventStream>), ExitCode> {
    let ran = match ckpt {
        Some(ckpt) => experiment
            .run_checkpointed(engine, kind, benchmark, ckpt, traced)
            .map(|(outcome, events)| match outcome {
                CheckpointOutcome::Completed(outcome) => Some((outcome, events)),
                CheckpointOutcome::Halted { checkpoints } => {
                    println!(
                        "halted after {checkpoints} checkpoint(s); resume with \
                         `vrl {cmd} --resume {}`",
                        ckpt.path.display()
                    );
                    None
                }
            }),
        None => experiment.trace(benchmark).and_then(|trace| {
            let mut recorder = traced.then(|| engine.recorder(benchmark, kind));
            let outcome = match &mut recorder {
                Some(recorder) => experiment.run(engine, kind, trace, 0, recorder, |_| {}),
                None => experiment.run(engine, kind, trace, 0, &mut NullObserver, |_| {}),
            }?;
            Ok(Some((outcome, recorder.map(Recorder::finish))))
        }),
    };
    match ran {
        Ok(Some(ran)) => Ok(ran),
        Ok(None) => Err(ExitCode::SUCCESS),
        Err(err) => {
            eprintln!("{err}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Parses the checkpoint flags of a fresh run over `kinds`:
/// checkpointing needs a single policy.
fn fresh_checkpoint(
    args: &[String],
    kinds: &[PolicyKind],
) -> Result<Option<CheckpointConfig>, UsageError> {
    let ckpt = checkpoint_flags(args)?;
    if ckpt.is_some() && kinds.len() != 1 {
        return Err(UsageError::new(
            "--checkpoint needs a single --policy (not 'all')",
        ));
    }
    Ok(ckpt)
}

/// Writes `snapshot` to the `--metrics FILE`, if one was given.
fn metrics_flag(args: &[String], snapshot: &MetricsSnapshot) -> CmdResult {
    if let Some(path) = flag_value(args, "--metrics")? {
        if !write_metrics(&path, snapshot) {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_model() -> CmdResult {
    let tech = Technology::n90();
    let model = AnalyticalModel::new(tech);
    println!("technology: 90 nm (Vdd = {} V)", model.technology().vdd);
    println!("τ_full    = {} cycles", CycleBudget::FULL.total());
    println!("τ_partial = {} cycles", CycleBudget::PARTIAL.total());
    println!("sensing sub-phases: {} cycles", model.sensing_cycles());
    println!(
        "full-refresh charge level: {:.1}% of Vdd",
        model.full_charge_fraction() * 100.0
    );
    println!(
        "partial-refresh charge level (from full): {:.1}% of Vdd",
        model.partial_charge_fraction() * 100.0
    );
    println!(
        "sense threshold θ: {:.1}% of Vdd",
        model.sense_threshold() * 100.0
    );
    println!(
        "95% of charge restored by {:.1}% of tRFC",
        model.time_fraction_to_charge_fraction(0.95) * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_mprsf(args: &[String]) -> CmdResult {
    let Some(first) = args.first() else {
        return Err(UsageError::new(
            "usage: vrl mprsf <retention_ms> [period_ms]",
        ));
    };
    let retention: f64 = first.parse().map_err(|e| {
        UsageError::new(format!("retention_ms got an invalid value {first:?}: {e}"))
    })?;
    let model = AnalyticalModel::new(Technology::n90());
    let calc = MprsfCalculator::new(&model, 0.0);
    let period = match args.get(1) {
        Some(raw) => raw
            .parse()
            .map_err(|e| UsageError::new(format!("period_ms got an invalid value {raw:?}: {e}")))?,
        None => RefreshBin::for_retention(retention).period_ms(),
    };
    if period > retention {
        eprintln!("error: refresh period {period} ms exceeds retention {retention} ms");
        return Ok(ExitCode::FAILURE);
    }
    match calc.mprsf(retention, period) {
        Mprsf::Finite(m) => println!(
            "retention {retention} ms @ {period} ms period: MPRSF = {m} \
             (schedule: full + {m} partial refreshes)"
        ),
        Mprsf::Unbounded => println!(
            "retention {retention} ms @ {period} ms period: MPRSF unbounded \
             (saturates at the counter width)"
        ),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_plan(args: &[String]) -> CmdResult {
    reject_unknown_flags(args, &["--rows", "--seed", "--nbits"])?;
    let rows = rows_flag(args)?;
    let seed: u64 = flag_parse(args, "--seed", 42)?;
    let nbits: u32 = flag_parse(args, "--nbits", 2)?;
    let config = checked(ExperimentConfig {
        rows,
        seed,
        nbits,
        ..Default::default()
    })?;
    let profile = config.build_profile();
    let plan = config.build_plan(&profile);
    println!("bank: {rows} rows, seed {seed}, nbits {nbits}");
    for bin in RefreshBin::ALL {
        println!("  {bin}: {} rows", plan.bins().count(bin));
    }
    println!("MPRSF histogram: {:?}", plan.mprsf_histogram());
    println!(
        "mean refresh latency: {:.2} cycles (RAIDR: {})",
        plan.mean_refresh_cycles(
            RefreshKind::Full.cycles() as u64,
            RefreshKind::Partial.cycles() as u64
        ),
        RefreshKind::Full.cycles()
    );
    println!(
        "analytic VRL overhead vs RAIDR: {:.1}%",
        (vrl_dram::overhead::vrl_normalized(&plan, 19, 11) - 1.0) * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

const SIMULATE_FLAGS: [&str; 7] = [
    "--rows",
    "--duration-ms",
    "--policy",
    "--checkpoint",
    "--checkpoint-every",
    "--halt-after",
    "--resume",
];

fn cmd_simulate(args: &[String]) -> CmdResult {
    reject_unknown_flags(args, &SIMULATE_FLAGS)?;
    if let Some(path) = flag_value(args, "--resume")? {
        return Ok(match run_resume(args, &path)? {
            Ok((kind, _, Outcome::Sim(stats), _)) => {
                print_sim_stats(kind.name(), &stats);
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!("error: {path} is not a simulator snapshot (try `vrl sched --resume`)");
                ExitCode::FAILURE
            }
            Err(code) => code,
        });
    }
    let Some(benchmark) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        return Err(UsageError::new(format!(
            "usage: vrl simulate <benchmark> [--rows N] [--duration-ms D] [--policy P] \
             [--checkpoint FILE --checkpoint-every N [--halt-after K]] [--resume FILE]\n\
             benchmarks: {}",
            vrl_trace::WorkloadSpec::BENCHMARKS.join(", ")
        )));
    };
    let rows = rows_flag(args)?;
    let duration_ms: f64 = flag_parse(args, "--duration-ms", 512.0)?;
    let kinds = policy_flag(args, "all")?;
    let experiment = Experiment::new(checked(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    })?);
    let ckpt = fresh_checkpoint(args, &kinds)?;
    for kind in kinds {
        let ckpt = ckpt.as_ref();
        match run_fresh(
            "simulate",
            &experiment,
            &Engine::Sim,
            kind,
            &benchmark,
            ckpt,
            false,
        ) {
            Ok((outcome, _)) => print_sim_stats(kind.name(), outcome.sim_stats()),
            Err(code) => return Ok(code),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> CmdResult {
    reject_unknown_flags(
        args,
        &[
            "--rows",
            "--duration-ms",
            "--threads",
            "--metrics",
            "--manifest",
        ],
    )?;
    let rows = rows_flag(args)?;
    let duration_ms: f64 = flag_parse(args, "--duration-ms", 512.0)?;
    let experiment = Experiment::new(checked(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    })?);
    // --threads beats VRL_THREADS beats available parallelism.
    let exec = match flag_value(args, "--threads")? {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => vrl_exec::ExecConfig::new(n),
            _ => return Err(UsageError::new("--threads takes a positive integer")),
        },
        None => vrl_exec::ExecConfig::from_env(),
    };
    println!(
        "bank: {rows} rows, {duration_ms} ms simulated, {} workers",
        exec.workers
    );
    // Run the matrix directly (rather than `compare_all`) so the
    // per-run stats are on hand for an optional `--metrics` snapshot
    // without simulating twice. `--manifest` swaps in the
    // crash-consistent sweep that persists completed cells.
    let policies = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];
    let matrix = match flag_value(args, "--manifest")? {
        Some(path) => experiment.run_matrix_manifested(&exec, &policies, Path::new(&path)),
        None => experiment
            .run_matrix(&Engine::Sim, &policies, &exec)
            .map(|(c, _)| c),
    };
    let cells = match matrix {
        Ok(cells) => cells,
        Err(err) => {
            eprintln!("{err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "{:>14} {:>8} {:>8} {:>12}",
        "benchmark", "RAIDR", "VRL", "VRL-Access"
    );
    for group in cells.chunks_exact(policies.len()) {
        let busy = |i: usize| group[i].outcome.sim_stats().refresh_busy_cycles as f64;
        println!(
            "{:>14} {:>8.3} {:>8.3} {:>12.3}",
            group[0].benchmark,
            1.0,
            busy(1) / busy(0),
            busy(2) / busy(0)
        );
    }
    if let Some(path) = flag_value(args, "--metrics")? {
        let snapshots: Vec<MetricsSnapshot> = cells
            .iter()
            .map(|c| sim_metrics(c.outcome.sim_stats()))
            .collect();
        let merged = MetricsSnapshot::merged(snapshots.iter())
            .expect("sim metric snapshots share one shape");
        if !write_metrics(&path, &merged) {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

const SCHED_FLAGS: [&str; 12] = [
    "--rows",
    "--channels",
    "--ranks",
    "--banks",
    "--duration-ms",
    "--policy",
    "--no-parallel",
    "--metrics",
    "--checkpoint",
    "--checkpoint-every",
    "--halt-after",
    "--resume",
];

fn cmd_sched(args: &[String]) -> CmdResult {
    reject_unknown_flags(args, &SCHED_FLAGS)?;
    if let Some(path) = flag_value(args, "--resume")? {
        let resumed = match run_resume(args, &path)? {
            Ok(resumed) => resumed,
            Err(code) => return Ok(code),
        };
        let (kind, _, Outcome::Sched(stats), _) = resumed else {
            eprintln!("error: {path} is not a scheduler snapshot (try `vrl simulate --resume`)");
            return Ok(ExitCode::FAILURE);
        };
        print_sched_stats(kind.name(), &stats);
        return metrics_flag(args, &sched_metrics(&stats));
    }
    let Some(benchmark) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        return Err(UsageError::new(format!(
            "usage: vrl sched <benchmark> [--rows N] [--channels C] [--ranks R] [--banks B] \
             [--duration-ms D] [--policy P] [--no-parallel] \
             [--checkpoint FILE --checkpoint-every N [--halt-after K]] [--resume FILE]\n\
             benchmarks: {}",
            vrl_trace::WorkloadSpec::BENCHMARKS.join(", ")
        )));
    };
    let rows = rows_flag(args)?;
    let channels: u32 = flag_parse(args, "--channels", 1)?;
    let ranks: u32 = flag_parse(args, "--ranks", 1)?;
    let banks: u32 = flag_parse(args, "--banks", 8)?;
    let duration_ms: f64 = flag_parse(args, "--duration-ms", 512.0)?;
    let parallel = !flag_present(args, "--no-parallel");
    let kinds = policy_flag(args, "all")?;
    let experiment = Experiment::new(checked(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    })?);
    let sched = geometry(&experiment, channels, ranks, banks)?.with_parallelism(parallel);
    println!(
        "dimm: {channels} channels × {ranks} ranks × {banks} banks × {} rows, \
         {duration_ms} ms simulated, refresh parallelization {}",
        sched.rows_per_bank(),
        if parallel { "on" } else { "off" }
    );
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "policy",
        "refresh-busy",
        "blocked",
        "postponed",
        "pulled-in",
        "stall",
        "p50 lat",
        "p99 lat"
    );
    let ckpt = fresh_checkpoint(args, &kinds)?;
    let engine = Engine::Sched(sched);
    let mut merged = MetricsSnapshot::default();
    for kind in kinds {
        let ckpt = ckpt.as_ref();
        let stats = match run_fresh("sched", &experiment, &engine, kind, &benchmark, ckpt, false) {
            Ok((Outcome::Sched(stats), _)) => stats,
            Ok(_) => unreachable!("a scheduler run reports scheduler stats"),
            Err(code) => return Ok(code),
        };
        print_sched_stats(kind.name(), &stats);
        merged
            .merge(&sched_metrics(&stats))
            .expect("sched metric snapshots share one shape");
    }
    metrics_flag(args, &merged)
}

const TRACE_FLAGS: [&str; 13] = [
    "--policy",
    "--rows",
    "--channels",
    "--ranks",
    "--banks",
    "--duration-ms",
    "--out",
    "--metrics",
    "--validate",
    "--checkpoint",
    "--checkpoint-every",
    "--halt-after",
    "--resume",
];

/// Writes `stream` to `out` as Chrome `trace_event` JSON, prints its
/// summary line, validates it under `--validate`, and writes the
/// `--metrics` file: the tail of a fresh and a resumed `vrl trace`.
fn report_trace(
    args: &[String],
    out: &str,
    benchmark: &str,
    stats: &vrl_sched::SchedStats,
    stream: &EventStream,
) -> CmdResult {
    let json = chrome_trace_json(
        &stream.events,
        &stream.label,
        &stream.policy,
        stream.dropped,
    );
    if let Err(err) = std::fs::write(out, &json) {
        eprintln!("error: cannot write {out}: {err}");
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "{benchmark}: {} events ({} dropped) over {} cycles -> {out}",
        stream.events.len(),
        stream.dropped,
        stats.sim.total_cycles
    );
    if flag_present(args, "--validate") {
        match validate_chrome_trace(&json) {
            Ok(summary) => {
                let kinds: Vec<&str> = summary.kinds.iter().map(String::as_str).collect();
                println!(
                    "valid Chrome trace: {} events across {} banks, kinds: {}",
                    summary.events,
                    summary.banks.len(),
                    kinds.join(", ")
                );
            }
            Err(err) => {
                eprintln!("{err}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    metrics_flag(args, &sched_metrics(stats))
}

fn cmd_trace(args: &[String]) -> CmdResult {
    reject_unknown_flags(args, &TRACE_FLAGS)?;
    if let Some(path) = flag_value(args, "--resume")? {
        let resumed = match run_resume(args, &path)? {
            Ok(resumed) => resumed,
            Err(code) => return Ok(code),
        };
        let (_, benchmark, Outcome::Sched(stats), Some(stream)) = resumed else {
            eprintln!("error: {path} is not a traced scheduler snapshot");
            return Ok(ExitCode::FAILURE);
        };
        let out = flag_value(args, "--out")?.unwrap_or_else(|| "trace.json".to_owned());
        return report_trace(args, &out, &benchmark, &stats, &stream);
    }
    let Some(benchmark) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        return Err(UsageError::new(format!(
            "usage: vrl trace <benchmark> [--policy P] [--rows N] [--channels C] [--ranks R] \
             [--banks B] [--duration-ms D] [--out FILE] [--metrics FILE] [--validate] \
             [--checkpoint FILE --checkpoint-every N [--halt-after K]] [--resume FILE]\n\
             benchmarks: {}",
            vrl_trace::WorkloadSpec::BENCHMARKS.join(", ")
        )));
    };
    let rows = rows_flag(args)?;
    let channels: u32 = flag_parse(args, "--channels", 1)?;
    let ranks: u32 = flag_parse(args, "--ranks", 1)?;
    let banks: u32 = flag_parse(args, "--banks", 8)?;
    let duration_ms: f64 = flag_parse(args, "--duration-ms", 512.0)?;
    let [kind] = policy_flag(args, "vrl-access")?[..] else {
        return Err(UsageError::new(
            "trace records a single policy (auto, raidr, vrl, vrl-access)",
        ));
    };
    let out = flag_value(args, "--out")?.unwrap_or_else(|| "trace.json".to_owned());
    let experiment = Experiment::new(checked(ExperimentConfig {
        rows,
        duration_ms,
        ..Default::default()
    })?);
    let engine = Engine::Sched(geometry(&experiment, channels, ranks, banks)?);
    let ckpt = checkpoint_flags(args)?;
    let (stats, stream) = match run_fresh(
        "trace",
        &experiment,
        &engine,
        kind,
        &benchmark,
        ckpt.as_ref(),
        true,
    ) {
        Ok((Outcome::Sched(stats), Some(stream))) => (stats, stream),
        Ok(_) => unreachable!("a traced scheduler run reports its events"),
        Err(code) => return Ok(code),
    };
    report_trace(args, &out, &benchmark, &stats, &stream)
}

fn cmd_netlist(args: &[String]) -> CmdResult {
    let which = args.first().map(String::as_str).unwrap_or("equalization");
    let params = Technology::n90().to_spice_params(BankGeometry::operational_segment());
    let deck = match which {
        "equalization" => {
            let (ckt, _) = vrl_spice::circuits::equalization_circuit(&params, 1e-12);
            vrl_spice::netlist_io::to_netlist_string(&ckt, "Figure 2a — equalization")
        }
        "charge-sharing" => {
            let (ckt, _) =
                vrl_spice::circuits::charge_sharing_array(&params, &[false, true, false], 1e-12);
            vrl_spice::netlist_io::to_netlist_string(&ckt, "Figures 2b/2c — coupled charge sharing")
        }
        "sense-restore" => {
            let (ckt, _) = vrl_spice::circuits::sense_restore_circuit(
                &params,
                0.55,
                vrl_spice::circuits::SenseTiming::default(),
            );
            vrl_spice::netlist_io::to_netlist_string(&ckt, "Figure 2d — sense and restore")
        }
        other => {
            return Err(UsageError::new(format!(
                "unknown circuit '{other}' (equalization, charge-sharing, sense-restore)"
            )));
        }
    };
    print!("{deck}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(args: &[String]) -> CmdResult {
    reject_unknown_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--span-cycles",
            "--state",
            "--max-conns",
            "--max-queued",
            "--max-line-bytes",
            "--read-timeout-ms",
            "--artifacts",
            "--result-cache-bytes",
            "--max-subscribers",
            "--sub-buffer",
            "--snapshot-ring",
            "--sample-ms",
        ],
    )?;
    let addr: String = flag_require(args, "--addr")?;
    let defaults = ServerConfig::default();
    let mut limits = defaults.limits;
    limits.max_connections = flag_parse(args, "--max-conns", limits.max_connections)?;
    limits.max_queued_jobs = flag_parse(args, "--max-queued", limits.max_queued_jobs)?;
    limits.max_line_bytes = flag_parse(args, "--max-line-bytes", limits.max_line_bytes)?;
    limits.read_timeout_ms = flag_parse(args, "--read-timeout-ms", limits.read_timeout_ms)?;
    limits.max_subscribers = flag_parse(args, "--max-subscribers", limits.max_subscribers)?;
    let mut cache = defaults.cache;
    cache.result_bytes = flag_parse(args, "--result-cache-bytes", cache.result_bytes)?;
    let config = ServerConfig {
        workers: flag_parse(args, "--workers", defaults.workers)?,
        span_cycles: flag_parse(args, "--span-cycles", defaults.span_cycles)?,
        state_path: flag_value(args, "--state")?.map(Into::into),
        ring_capacity: defaults.ring_capacity,
        limits,
        cache,
        artifact_dir: flag_value(args, "--artifacts")?.map(Into::into),
        snapshot_ring: flag_parse(args, "--snapshot-ring", defaults.snapshot_ring)?,
        // The library default (0) keeps tests deterministic; the
        // operator-facing daemon samples every second unless told not
        // to, so `history` has data even on an idle node.
        sample_interval_ms: flag_parse(args, "--sample-ms", 1_000)?,
        subscriber_buffer: flag_parse(args, "--sub-buffer", defaults.subscriber_buffer)?,
    };
    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("error: cannot bind {addr}: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("vrl-serve listening on {}", server.addr());
    server.wait();
    println!("vrl-serve stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &[String]) -> CmdResult {
    reject_unknown_flags(
        args,
        &[
            "--addr",
            "--spec",
            "--raw",
            "--direct",
            "--quiet",
            "--expect-error",
            "--shutdown",
            "--ping",
            "--stats",
            "--health",
            "--metrics",
            "--format",
            "--prefix",
            "--history",
            "--limit",
            "--subscribe",
            "--count",
            "--retries",
            "--timeout-ms",
        ],
    )?;
    let quiet = flag_present(args, "--quiet");
    let expect_error = flag_present(args, "--expect-error");
    let retries: u32 = flag_parse(args, "--retries", 0)?;
    let timeout_ms: u64 = flag_parse(args, "--timeout-ms", 0)?;
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));

    // --direct: run in-process and print the reference result frame.
    if flag_present(args, "--direct") {
        let spec_json: String = flag_require(args, "--spec")?;
        let value = vrl_obs::json::parse(&spec_json)
            .map_err(|e| UsageError::new(format!("--spec is not valid JSON: {e}")))?;
        let spec = vrl_serve::spec::parse_spec(&value)
            .map_err(|e| UsageError::new(format!("--spec is invalid: {e}")))?;
        return Ok(match vrl_serve::runner::direct_result(&spec) {
            Ok(frame) => {
                println!("{frame}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("{err}");
                ExitCode::FAILURE
            }
        });
    }

    let addr: String = flag_require(args, "--addr")?;
    let mut client = match Client::connect_with_timeout(&addr, timeout) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("error: cannot connect to {addr}: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };

    // Single-frame probes: liveness, readiness, and the server metrics
    // snapshot.
    if flag_present(args, "--ping") || flag_present(args, "--health") {
        let response = if flag_present(args, "--ping") {
            client.ping()
        } else {
            client.health()
        };
        return Ok(match response {
            Ok(frame) => {
                println!("{frame}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("error: probe failed: {err}");
                ExitCode::FAILURE
            }
        });
    }
    if flag_present(args, "--stats") {
        return Ok(match client.stats() {
            Ok(frame) => {
                if flag_present(args, "--raw") {
                    println!("{frame}");
                    ExitCode::SUCCESS
                } else {
                    match vrl_obs::json::parse(&frame)
                        .ok()
                        .and_then(|v| v.get("metrics").map(parse_metrics_object))
                    {
                        Some(snapshot) => {
                            print_stats_pretty(&snapshot);
                            ExitCode::SUCCESS
                        }
                        None => {
                            eprintln!("error: stats frame has no metrics object: {frame}");
                            ExitCode::FAILURE
                        }
                    }
                }
            }
            Err(err) => {
                eprintln!("error: probe failed: {err}");
                ExitCode::FAILURE
            }
        });
    }

    // Metrics exposition: text (Prometheus-style, printed decoded) or
    // the raw JSON frame.
    if flag_present(args, "--metrics") {
        let format = match flag_value(args, "--format")?.as_deref() {
            None | Some("text") => vrl_serve::MetricsFormat::Text,
            Some("json") => vrl_serve::MetricsFormat::Json,
            Some(other) => {
                return Err(UsageError::new(format!(
                    "--format got an invalid value {other:?} (text, json)"
                )))
            }
        };
        let prefix = flag_value(args, "--prefix")?;
        return Ok(match format {
            vrl_serve::MetricsFormat::Text => match client.metrics_text(prefix.as_deref()) {
                Ok(body) => {
                    print!("{body}");
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("error: metrics request failed: {err}");
                    ExitCode::FAILURE
                }
            },
            vrl_serve::MetricsFormat::Json => {
                match client.metrics_frame(format, prefix.as_deref()) {
                    Ok(frame) => {
                        println!("{frame}");
                        ExitCode::SUCCESS
                    }
                    Err(err) => {
                        eprintln!("error: metrics request failed: {err}");
                        ExitCode::FAILURE
                    }
                }
            }
        });
    }

    // Snapshot-delta history replay (one frame per line, NDJSON).
    if flag_present(args, "--history") {
        let limit =
            match flag_value(args, "--limit")? {
                Some(raw) => Some(raw.parse::<usize>().map_err(|_| {
                    UsageError::new(format!("--limit got an invalid value {raw:?}"))
                })?),
                None => None,
            };
        return Ok(match client.history(limit) {
            Ok(frames) => {
                for frame in &frames {
                    println!("{frame}");
                }
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("error: history request failed: {err}");
                ExitCode::FAILURE
            }
        });
    }

    // Live event stream: print frames until --count events were seen
    // (0 = until the server closes the stream).
    if flag_present(args, "--subscribe") {
        let count: u64 = flag_parse(args, "--count", 0)?;
        let ack = match client.subscribe() {
            Ok(ack) => ack,
            Err(err) => {
                eprintln!("error: subscribe failed: {err}");
                return Ok(ExitCode::FAILURE);
            }
        };
        println!("{ack}");
        if !ack.starts_with("{\"type\":\"subscribed\"") {
            return Ok(ExitCode::FAILURE);
        }
        let mut seen: u64 = 0;
        loop {
            match client.recv() {
                Ok(frame) => {
                    println!("{frame}");
                    seen += 1;
                    if count > 0 && seen >= count {
                        break;
                    }
                }
                Err(vrl_serve::ClientError::Disconnected) => break,
                Err(err) => {
                    eprintln!("error: subscription stream failed: {err}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(mode) = flag_value(args, "--shutdown")? {
        let drain = match mode.as_str() {
            "drain" => true,
            "now" => false,
            other => {
                return Err(UsageError::new(format!(
                    "--shutdown got an invalid mode {other:?} (drain, now)"
                )))
            }
        };
        return Ok(match client.shutdown(drain) {
            Ok(frame) => {
                println!("{frame}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("error: shutdown request failed: {err}");
                ExitCode::FAILURE
            }
        });
    }

    let line = match (flag_value(args, "--spec")?, flag_value(args, "--raw")?) {
        (Some(_), Some(_)) => {
            return Err(UsageError::new("--spec and --raw are mutually exclusive"))
        }
        (Some(spec_json), None) => {
            let value = vrl_obs::json::parse(&spec_json)
                .map_err(|e| UsageError::new(format!("--spec is not valid JSON: {e}")))?;
            drop(value);
            let compact: String = spec_json.chars().filter(|c| *c != '\n').collect();
            format!("{{\"type\":\"submit\",\"spec\":{compact}}}")
        }
        (None, Some(raw)) => raw.chars().filter(|c| *c != '\n').collect(),
        (None, None) => {
            return Err(UsageError::new(
                "submit needs --spec JSON, --raw LINE, --shutdown MODE, --ping, --health, \
                 --stats, --metrics, --history, or --subscribe",
            ))
        }
    };

    let policy = vrl_serve::RetryPolicy {
        retries,
        timeout,
        ..vrl_serve::RetryPolicy::default()
    };
    let frames = match client.submit_with_retry(&line, &policy) {
        Ok(frames) => frames,
        Err(err) => {
            eprintln!("error: submission failed: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let terminal = frames
        .last()
        .expect("submit_raw returns at least one frame");
    let errored = terminal.starts_with("{\"type\":\"error\"");
    debug_assert!(is_terminal(terminal));
    if quiet {
        println!("{terminal}");
    } else {
        for frame in &frames {
            println!("{frame}");
        }
    }
    let ok = if expect_error { errored } else { !errored };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Rebuilds a [`MetricsSnapshot`] from the JSON object the server
/// renders (`MetricsSnapshot::to_json` shape: `counters`/`gauges` as
/// name→number maps, `histograms` as name→`{bounds,counts}`). Skips
/// anything malformed rather than failing — telemetry display is
/// best-effort.
fn parse_metrics_object(value: &vrl_obs::json::JsonValue) -> MetricsSnapshot {
    use vrl_obs::json::JsonValue;
    let mut snapshot = MetricsSnapshot::default();
    if let Some(JsonValue::Object(map)) = value.get("counters") {
        for (name, v) in map {
            if let Some(n) = v.as_f64() {
                snapshot.counters.insert(name.clone(), n as u64);
            }
        }
    }
    if let Some(JsonValue::Object(map)) = value.get("gauges") {
        for (name, v) in map {
            if let Some(n) = v.as_f64() {
                snapshot.gauges.insert(name.clone(), n as u64);
            }
        }
    }
    if let Some(JsonValue::Object(map)) = value.get("histograms") {
        for (name, hist) in map {
            let nums = |key: &str| -> Option<Vec<u64>> {
                hist.get(key)?
                    .as_array()?
                    .iter()
                    .map(|n| n.as_f64().map(|f| f as u64))
                    .collect()
            };
            if let (Some(bounds), Some(counts)) = (nums("bounds"), nums("counts")) {
                if counts.len() == bounds.len() + 1 {
                    snapshot
                        .histograms
                        .insert(name.clone(), vrl_obs::HistogramSnapshot { bounds, counts });
                }
            }
        }
    }
    snapshot
}

/// Prints a snapshot as aligned `name value` lines: counters and
/// gauges verbatim, histograms as derived `.count`/`.p50`/`.p99`
/// lines, all sorted by name.
fn print_stats_pretty(snapshot: &MetricsSnapshot) {
    let mut lines: Vec<(String, u64)> = Vec::new();
    for (name, value) in &snapshot.counters {
        lines.push((name.clone(), *value));
    }
    for (name, value) in &snapshot.gauges {
        lines.push((name.clone(), *value));
    }
    for (name, hist) in &snapshot.histograms {
        lines.push((format!("{name}.count"), hist.total()));
        lines.push((format!("{name}.p50"), hist.quantile(0.5)));
        lines.push((format!("{name}.p99"), hist.quantile(0.99)));
    }
    lines.sort();
    let width = lines.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
    for (name, value) in &lines {
        println!("{name:<width$} {value}");
    }
}

/// One `vrl top` refresh: connect, fetch health + metrics, render a
/// dashboard. Returns the completed-jobs counter so the caller can
/// derive throughput between polls.
fn top_tick(addr: &str, prev_completed: Option<u64>, interval_ms: u64) -> Result<u64, String> {
    use vrl_obs::json::JsonValue;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let health_frame = client.health().map_err(|e| format!("health probe: {e}"))?;
    let health = vrl_obs::json::parse(&health_frame).map_err(|e| format!("health frame: {e}"))?;
    let metrics_frame = client
        .metrics_frame(vrl_serve::MetricsFormat::Json, None)
        .map_err(|e| format!("metrics probe: {e}"))?;
    let metrics_value =
        vrl_obs::json::parse(&metrics_frame).map_err(|e| format!("metrics frame: {e}"))?;
    let snapshot = metrics_value
        .get("metrics")
        .map(parse_metrics_object)
        .ok_or_else(|| "metrics frame has no metrics object".to_string())?;

    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0);
    let hnum = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;

    let ready = matches!(health.get("ready"), Some(JsonValue::Bool(true)));
    let uptime_ms = hnum(health.get("uptime_ms"));
    let completed = counter("serve.jobs.completed");
    let rate = prev_completed.map(|prev| {
        let delta = completed.saturating_sub(prev) as f64;
        delta * 1000.0 / interval_ms.max(1) as f64
    });

    println!(
        "vrl top — {addr}   up {:.1}s   {}",
        uptime_ms as f64 / 1000.0,
        if ready { "READY" } else { "NOT READY" }
    );
    let rate_str = match rate {
        Some(r) => format!("{r:+.1}/s"),
        None => "—".to_string(),
    };
    println!(
        "jobs     completed {completed} ({rate_str})   failed {}   queue {}/{}   workers {}/{}",
        counter("serve.jobs.failed"),
        hnum(health.get("queue_depth")),
        hnum(health.get("queue_limit")),
        hnum(health.get("workers_live")),
        hnum(health.get("workers_total")),
    );
    println!(
        "shed     conns {}  jobs {}  long-lines {}  timeouts {}",
        counter("serve.shed.connections"),
        counter("serve.shed.jobs"),
        counter("serve.shed.long_lines"),
        counter("serve.shed.timeouts"),
    );
    println!(
        "cache    result hits {}  misses {}  bytes {}/{}  evictions {}",
        counter("serve.cache.result_hits"),
        counter("serve.cache.result_misses"),
        gauge("serve.cache.result_bytes"),
        gauge("serve.cache.result_capacity_bytes"),
        counter("serve.cache.result_evictions"),
    );
    println!(
        "streams  subscribers {} (dropped {})   events offered {} (dropped {})",
        hnum(health.get("subscribers")),
        counter("serve.subs.dropped"),
        counter("serve.events.offered"),
        counter("serve.events.dropped"),
    );
    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "phase", "p50_us", "p99_us", "count"
    );
    for (name, hist) in &snapshot.histograms {
        if let Some(phase) = name.strip_prefix("serve.job.") {
            println!(
                "  {:<26} {:>10} {:>10} {:>8}",
                phase,
                hist.quantile(0.5),
                hist.quantile(0.99),
                hist.total()
            );
        }
    }
    Ok(completed)
}

/// `vrl top ADDR` — a polling terminal dashboard over the health and
/// metrics endpoints.
fn cmd_top(args: &[String]) -> CmdResult {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        return Err(UsageError::new(
            "usage: vrl top <addr> [--interval-ms MS] [--count N] [--plain]",
        ));
    };
    reject_unknown_flags(&args[1..], &["--interval-ms", "--count", "--plain"])?;
    let interval_ms: u64 = flag_parse(args, "--interval-ms", 1_000)?;
    let count: u64 = flag_parse(args, "--count", 0)?;
    let plain = flag_present(args, "--plain");
    let mut prev_completed: Option<u64> = None;
    let mut ticks: u64 = 0;
    loop {
        if !plain {
            // Clear the screen and home the cursor between refreshes.
            print!("\x1b[2J\x1b[H");
        }
        match top_tick(&addr, prev_completed, interval_ms) {
            Ok(completed) => prev_completed = Some(completed),
            Err(err) => {
                eprintln!("error: {err}");
                return Ok(ExitCode::FAILURE);
            }
        }
        ticks += 1;
        if count > 0 && ticks >= count {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
    }
}

/// Restores the default SIGPIPE disposition so piping output into
/// `head`/`grep -q` terminates the process quietly instead of
/// panicking on a broken-pipe write error (Rust installs SIG_IGN
/// before `main`). Declared directly to keep the workspace
/// dependency-free; libc is already linked by std.
#[cfg(unix)]
fn restore_default_sigpipe() {
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}

fn main() -> ExitCode {
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("model") => cmd_model(),
        Some("mprsf") => cmd_mprsf(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sched") => cmd_sched(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("netlist") => cmd_netlist(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some(other) if !other.starts_with("--") => {
            Err(UsageError::new(format!("unknown subcommand '{other}'")))
        }
        _ => {
            eprintln!("vrl — the VRL-DRAM analytical model and simulator\n");
            eprintln!("usage:");
            eprintln!("  vrl model");
            eprintln!("  vrl mprsf <retention_ms> [period_ms]");
            eprintln!("  vrl plan [--rows N] [--seed S] [--nbits B]");
            eprintln!("  vrl simulate <benchmark> [--rows N] [--duration-ms D] [--policy P]");
            eprintln!(
                "  vrl compare [--rows N] [--duration-ms D] [--threads T] [--metrics FILE] \
                 [--manifest FILE]"
            );
            eprintln!(
                "  vrl sched <benchmark> [--rows N] [--channels C] [--ranks R] [--banks B] \
                 [--duration-ms D] [--policy P] [--no-parallel] [--metrics FILE]"
            );
            eprintln!(
                "  vrl trace <benchmark> [--policy P] [--rows N] [--channels C] [--ranks R] \
                 [--banks B] [--duration-ms D] [--out FILE] [--metrics FILE] [--validate]"
            );
            eprintln!(
                "  (simulate/sched/trace also take --checkpoint FILE --checkpoint-every N \
                 [--halt-after K] and --resume FILE)"
            );
            eprintln!("  vrl netlist <equalization|charge-sharing|sense-restore>");
            eprintln!(
                "  vrl serve --addr HOST:PORT [--workers N] [--span-cycles N] [--state FILE] \
                 [--max-conns N] [--max-queued N] [--max-line-bytes N] [--read-timeout-ms MS] \
                 [--artifacts DIR] [--result-cache-bytes N] [--max-subscribers N] \
                 [--sub-buffer N] [--snapshot-ring N] [--sample-ms MS]"
            );
            eprintln!(
                "  vrl submit --addr HOST:PORT --spec JSON [--quiet] [--expect-error] \
                 [--retries N] [--timeout-ms MS]"
            );
            eprintln!("  vrl submit --direct --spec JSON");
            eprintln!("  vrl submit --addr HOST:PORT --raw LINE [--quiet] [--expect-error]");
            eprintln!("  vrl submit --addr HOST:PORT [--ping | --health | --stats [--raw]]");
            eprintln!("  vrl submit --addr HOST:PORT --metrics [--format text|json] [--prefix P]");
            eprintln!("  vrl submit --addr HOST:PORT --history [--limit N]");
            eprintln!("  vrl submit --addr HOST:PORT --subscribe [--count N]");
            eprintln!("  vrl submit --addr HOST:PORT --shutdown <drain|now>");
            eprintln!("  vrl top <addr> [--interval-ms MS] [--count N] [--plain]");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("usage error: {usage}");
            eprintln!("run `vrl` with no arguments for usage");
            ExitCode::from(USAGE_EXIT)
        }
    }
}
