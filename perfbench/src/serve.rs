//! `serve-cold` and `serve-warm`: one in-process `vrl-serve` daemon with
//! one worker, driven by one client connection in a closed loop (the
//! next spec is sent only after the previous terminal frame arrives).
//!
//! serve-cold sends a grid of distinct specs to a fresh daemon, so every
//! job builds its artifacts and runs an engine: the cache's write path.
//! serve-warm replays an already computed grid, so every reply is a
//! result-cache hit: the cache's read path, where only request parsing,
//! hashing, the queue hand-off and the wire do work.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vrl_dram::experiment::{Experiment, PolicyKind};
use vrl_dram_sim::{FaultConfig, GuardConfig, SimStats};
use vrl_obs::json::{self, JsonValue};
use vrl_obs::HistogramSnapshot;
use vrl_sched::SchedStats;
use vrl_serve::protocol::{parse_request, Request};
use vrl_serve::runner::{result_frame, Outcome};
use vrl_serve::spec::parse_spec;
use vrl_serve::{Client, FrontEnd, JobSpec, MetricsFormat, Server, ServerConfig};
use vrl_trace::{TraceRecord, WorkloadSpec};

use crate::golden::{self, FrameGolden};
use crate::host::HostProbe;
use crate::layers::{LayerReport, Phase};
use crate::spans::Spans;
use crate::stats;
use crate::{
    passes, run_seeds, Run, SeedRng, PAPER_VRL_ACCESS_REDUCTION_PCT, REFERENCE_SEED, SEED_POOL,
};

const POLICIES: [&str; 3] = ["raidr", "vrl", "vrl-access"];
/// serve-cold benchmarks, from tiny to full-memory footprints.
const COLD_BENCHMARKS: [&str; 7] = [
    "blackscholes",
    "swaptions",
    "raytrace",
    "facesim",
    "ferret",
    "canneal",
    "bgsave",
];
const COLD_GEOMETRY: &str = "\"rows\":512,\"duration_ms\":64";
/// serve-warm specs are small: the engines never run in its timed phase.
const WARM_GEOMETRY: &str = "\"rows\":256,\"duration_ms\":16";
/// serve-cold passes per run, all on one fresh daemon: the first at the
/// reference seed, the rest at drawn seeds, so every spec is new to it.
const COLD_MIN_PASSES: usize = 2;
/// One serve-cold pass on the reference host.
const COLD_REFERENCE_PASS_S: f64 = 4.7;
/// Set-up (bind + connect) samples per serve-cold run; the last one
/// starts the daemon that serves the timed phase.
const COLD_SETUP_SAMPLES: usize = 101;
/// serve-warm replies per second on the reference host; a run replays
/// whole grids until it has sent `seconds` worth of them.
const WARM_REFERENCE_REPLIES_PER_S: f64 = 9300.0;
/// Set-up (bind + connect + cache fill) samples per serve-warm run.
const WARM_SETUP_SAMPLES: usize = 3;
/// Client-side re-executions of the request decoding per warm spec.
const DECODE_REPEATS: usize = 200;

/// One request of a grid.
pub struct Req {
    pub line: String,
    pub spec: JobSpec,
}

fn req(seed: u64, benchmark: &str, policy: &str, geometry: &str, front: &str) -> Req {
    let line = format!(
        "{{\"type\":\"submit\",\"spec\":{{\"benchmark\":\"{benchmark}\",\"policy\":\"{policy}\",\
         \"seed\":{seed},{geometry},{front}}}}}"
    );
    match parse_request(&line) {
        Ok(Request::Submit(spec)) => Req { line, spec },
        other => panic!("grid request {line} does not parse as a submit: {other:?}"),
    }
}

/// serve-cold's grid for one experiment seed: benchmarks × policies ×
/// all five front ends.
pub fn cold_grid(seed: u64) -> Vec<Req> {
    let fronts = [
        "\"front_end\":\"sim\"".to_owned(),
        "\"front_end\":\"frfcfs\",\"queue_depth\":8".to_owned(),
        "\"front_end\":\"sched\",\"banks\":8".to_owned(),
        "\"front_end\":\"dimm\",\"channels\":2,\"ranks\":2,\"banks_per_rank\":4".to_owned(),
        format!(
            "\"front_end\":\"faulted\",\"fault_seed\":{},\"guard\":true",
            seed ^ 0x5eed
        ),
    ];
    let mut grid = Vec::new();
    for benchmark in COLD_BENCHMARKS {
        for policy in POLICIES {
            for front in &fronts {
                grid.push(req(seed, benchmark, policy, COLD_GEOMETRY, front));
            }
        }
    }
    grid
}

/// serve-warm's grid: every benchmark × policies × the three
/// single-channel front ends. The `sim` specs run at the reference seed
/// (for `ref_error_pct`), the others at `seed`.
pub fn warm_grid(seed: u64) -> Vec<Req> {
    let fronts = [
        "\"front_end\":\"sim\"",
        "\"front_end\":\"frfcfs\",\"queue_depth\":8",
        "\"front_end\":\"sched\",\"banks\":8",
    ];
    let mut grid = Vec::new();
    for benchmark in WorkloadSpec::BENCHMARKS {
        for policy in POLICIES {
            for front in fronts {
                let seed = if front == fronts[0] {
                    REFERENCE_SEED
                } else {
                    seed
                };
                grid.push(req(seed, benchmark, policy, WARM_GEOMETRY, front));
            }
        }
    }
    grid
}

fn io_err(context: &str) -> impl Fn(vrl_serve::ClientError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// A fresh daemon with one worker and a connected client; the time it
/// took is one set-up sample.
fn start_daemon(setup_s: &mut Vec<f64>) -> Result<(Server, Client), String> {
    let start = Instant::now();
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", config).map_err(|e| format!("daemon bind failed: {e}"))?;
    let client = Client::connect(&server.addr().to_string()).map_err(io_err("connect"))?;
    setup_s.push(start.elapsed().as_secs_f64());
    Ok((server, client))
}

fn stop(server: Server, client: Client) {
    drop(client);
    server.shutdown(true);
}

/// What one submission returned.
struct Reply {
    rtt_ms: f64,
    bytes: usize,
    /// The terminal frame when it is a result frame.
    result: Option<String>,
}

fn submit(client: &mut Client, line: &str) -> Result<Reply, String> {
    let start = Instant::now();
    let frames = client.submit_raw(line).map_err(io_err("submit"))?;
    let rtt_ms = start.elapsed().as_secs_f64() * 1e3;
    let bytes = frames.iter().map(|f| f.len() + 1).sum();
    let result = frames
        .into_iter()
        .last()
        .filter(|f| f.starts_with("{\"type\":\"result\""));
    Ok(Reply {
        rtt_ms,
        bytes,
        result,
    })
}

/// Whether `frame` is the recorded result of `spec`.
fn matches_golden(golden: &FrameGolden, spec: &JobSpec, frame: &str) -> bool {
    golden.get(&spec.canonical_hash()) == Some(&vrl_snap::fnv1a64(frame.as_bytes()))
}

/// Golden-checked results with their stats.
type Checked = Vec<(JobSpec, FrameStats)>;

/// A result frame's stats, read back from its `metrics` counters.
#[derive(Clone, Copy)]
struct FrameStats {
    events: u64,
    refresh_busy: u64,
}

fn frame_stats(frame: &str) -> Result<FrameStats, String> {
    let value = json::parse(frame).map_err(|e| format!("result frame is not JSON: {e}"))?;
    let counter = |name: &str| {
        value
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("result frame has no counter {name}"))
    };
    Ok(FrameStats {
        events: counter("sim.full_refreshes")?
            + counter("sim.partial_refreshes")?
            + counter("sim.accesses")?
            + counter("sim.scrub_accesses")?,
        refresh_busy: counter("sim.refresh_busy_cycles")?,
    })
}

/// |mean VRL-Access reduction vs RAIDR − 34 %| over the single-bank
/// (`sim`) results at the reference seed, in percentage points: the
/// served counterpart of fig4-stream's gap.
fn ref_error_pct(results: &[(JobSpec, FrameStats)]) -> f64 {
    let busy = |seed, benchmark: &str, policy| {
        results.iter().find_map(|(spec, stats)| {
            (spec.front_end == FrontEnd::Sim
                && spec.config.seed == seed
                && spec.benchmark == benchmark
                && spec.policy == policy)
                .then_some(stats.refresh_busy as f64)
        })
    };
    let reductions: Vec<f64> = results
        .iter()
        .filter(|(spec, _)| {
            spec.front_end == FrontEnd::Sim
                && spec.policy == PolicyKind::Raidr
                && spec.config.seed == REFERENCE_SEED
        })
        .filter_map(|(spec, stats)| {
            let access = busy(spec.config.seed, &spec.benchmark, PolicyKind::VrlAccess)?;
            Some(100.0 * (1.0 - access / stats.refresh_busy as f64))
        })
        .collect();
    let mean = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    (mean - PAPER_VRL_ACCESS_REDUCTION_PCT).abs()
}

/// The daemon's own view, from its `metrics` request.
struct Scrape {
    value: JsonValue,
}

impl Scrape {
    fn take(client: &mut Client) -> Result<Scrape, String> {
        let frame = client
            .metrics_frame(MetricsFormat::Json, Some("serve."))
            .map_err(io_err("metrics"))?;
        let value = json::parse(&frame).map_err(|e| format!("metrics frame: {e}"))?;
        Ok(Scrape { value })
    }

    fn counter(&self, name: &str) -> f64 {
        self.value
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    }

    /// Nearest-rank median of a phase histogram: the upper bound of its
    /// bucket, so exact only to the daemon's bucket width.
    fn p50(&self, name: &str) -> f64 {
        let numbers = |key: &str| -> Vec<u64> {
            self.value
                .get("metrics")
                .and_then(|m| m.get("histograms"))
                .and_then(|h| h.get(name))
                .and_then(|h| h.get(key))
                .and_then(JsonValue::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(JsonValue::as_f64)
                        .map(|v| v as u64)
                        .collect()
                })
                .unwrap_or_default()
        };
        let hist = HistogramSnapshot {
            bounds: numbers("bounds"),
            counts: numbers("counts"),
        };
        hist.quantile(0.5) as f64
    }

    fn hit_ratio(&self, shard: &str) -> f64 {
        let hits = self.counter(&format!("serve.cache.{shard}_hits"));
        let misses = self.counter(&format!("serve.cache.{shard}_misses"));
        hits / (hits + misses).max(1.0)
    }

    fn record(&self, report: &mut LayerReport) {
        for phase in ["queue_wait", "artifact_build", "run", "serialize"] {
            let name = format!("serve.job.{phase}_us");
            report.set(&name, self.p50(&name));
        }
        for shard in ["profile", "trace", "result"] {
            report.set(
                &format!("serve.cache.{shard}_hit_ratio"),
                self.hit_ratio(shard),
            );
        }
        let shed = ["connections", "jobs", "line_too_long", "timeout"]
            .iter()
            .map(|kind| self.counter(&format!("serve.shed.{kind}")))
            .sum();
        report.set("serve.shed_total", shed);
    }
}

/// Checks `replies` against the golden frames; returns the failures and
/// the checked results' stats.
fn check(
    golden: &FrameGolden,
    grid: &[Req],
    replies: &[Reply],
    checked: &mut Checked,
) -> Result<u64, String> {
    let mut failed = 0;
    for (r, reply) in grid.iter().zip(replies) {
        match &reply.result {
            Some(frame) if matches_golden(golden, &r.spec, frame) => {
                checked.push((r.spec.clone(), frame_stats(frame)?));
            }
            _ => {
                eprintln!("serve: wrong or missing result for {}", r.line);
                failed += 1;
            }
        }
    }
    Ok(failed)
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len().max(1) as f64;
    values.sum::<f64>() / n
}

pub fn run_cold(seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let golden = golden::frames(golden::SERVE_COLD)?;
    let mut rng = SeedRng::new(seed);
    let seeds = run_seeds(&mut rng, SEED_POOL.len());

    let mut probe = HostProbe::new();
    let mut setup_s = Vec::new();
    while setup_s.len() + 1 < COLD_SETUP_SAMPLES {
        let (server, client) = start_daemon(&mut setup_s)?;
        stop(server, client);
        probe.tick();
    }
    let (server, mut client) = start_daemon(&mut setup_s)?;

    let (mut job_ms, mut wall_s, mut failed) = (Vec::new(), 0.0, 0);
    let mut checked = Vec::new();
    let mut last = None;
    let cold_passes = passes(seconds, COLD_REFERENCE_PASS_S, COLD_MIN_PASSES).min(seeds.len());
    for &pass_seed in &seeds[..cold_passes] {
        let mut grid = cold_grid(pass_seed);
        rng.shuffle(&mut grid);
        let (start, mut sampling_ms) = (Instant::now(), 0.0);
        let mut replies = Vec::with_capacity(grid.len());
        for r in &grid {
            replies.push(submit(&mut client, &r.line)?);
            sampling_ms += probe.tick();
        }
        let pass_s = start.elapsed().as_secs_f64() - sampling_ms / 1e3;
        wall_s += pass_s;
        job_ms.extend(replies.iter().map(|r| r.rtt_ms));
        failed += check(&golden, &grid, &replies, &mut checked)?;
        last = Some((grid, replies, pass_s));
    }
    let layers = match last {
        Some((grid, replies, pass_s)) if traced => {
            let scrape = Scrape::take(&mut client)?;
            let hits = resubmit(&mut client, &grid, &replies)?;
            let untraced = Phase {
                wall_ms: pass_s * 1e3,
                host_factor: probe.factor(),
            };
            Some(trace_cold(&grid, &replies, &hits, untraced, &scrape)?)
        }
        _ => None,
    };
    stop(server, client);
    Ok(Run {
        setup_s,
        wall_s,
        attempted: job_ms.len() as u64,
        job_ms,
        failed,
        events: checked.iter().map(|(_, s)| s.events as f64).sum(),
        ref_error_pct: ref_error_pct(&checked),
        probe,
        layers,
    })
}

fn engine_events(outcome: &Outcome) -> u64 {
    match outcome {
        Outcome::Sim(s) => s.events(),
        Outcome::FrFcfs(c) => c.sim.events(),
        Outcome::Sched(s) => s.sim.events(),
        Outcome::Faulted(o) => o.stats.events(),
    }
}

/// Submits `grid` again, now all result-cache hits, and checks every reply
/// repeats the first one byte for byte.
fn resubmit(client: &mut Client, grid: &[Req], first: &[Reply]) -> Result<Vec<Reply>, String> {
    let hits = grid
        .iter()
        .map(|r| submit(client, &r.line))
        .collect::<Result<Vec<_>, _>>()?;
    if hits
        .iter()
        .zip(first)
        .any(|(hit, reply)| hit.result != reply.result)
    {
        return Err("a cached reply differs from the computed one".into());
    }
    Ok(hits)
}

/// The daemon's request decoding for `grid`, re-executed here through
/// the same public functions: mean µs per request of JSON parsing, spec
/// validation and spec hashing, recorded into `report`. Returns their sum.
fn decode_us(grid: &[Req], report: &mut LayerReport) -> f64 {
    let mut decode = Spans::default();
    for _ in 0..DECODE_REPEATS {
        for r in grid {
            let value = decode.time("obs.json_parse", |_| json::parse(&r.line));
            let value = value.expect("grid lines are valid JSON");
            let spec_value = value.get("spec").expect("grid lines carry a spec");
            let spec = decode.time("serve.spec.parse", |_| parse_spec(spec_value));
            let spec = spec.expect("grid specs are valid");
            decode.time("snap.spec_hash", |_| black_box(spec.canonical_hash()));
        }
    }
    let mut sum = 0.0;
    for (layer, metric) in [
        ("obs.json_parse", "obs.json_parse_us"),
        ("serve.spec.parse", "serve.spec.parse_us"),
        ("snap.spec_hash", "snap.spec_hash_us"),
    ] {
        let total = decode.get(layer);
        let us = total.self_ns as f64 / 1e3 / total.calls.max(1) as f64;
        report.set(metric, us);
        sum += us;
    }
    sum
}

/// Replays serve-cold's last pass in process, split at the layer
/// boundaries the daemon's runner crosses: artifacts built once per key
/// (the cache's build path), one engine call per front end, then the
/// result frame. Every replayed frame must equal the served one. `hits`
/// are the same specs resubmitted once cached: their round trip is the
/// per-request cost outside the artifacts, engines and rendering.
fn trace_cold(
    grid: &[Req],
    replies: &[Reply],
    hits: &[Reply],
    untraced: Phase,
    scrape: &Scrape,
) -> Result<LayerReport, String> {
    let span_cycles = ServerConfig::default().span_cycles;
    let mut spans = Spans::default();
    let mut events: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut experiments: BTreeMap<u64, Experiment> = BTreeMap::new();
    let mut traces: BTreeMap<(u64, String), Arc<Vec<TraceRecord>>> = BTreeMap::new();
    let mut records = 0u64;
    let (mut probe, mut sampling_ms) = (HostProbe::new(), 0.0);

    let start = Instant::now();
    for (r, reply) in grid.iter().zip(replies) {
        let spec = &r.spec;
        let config = spec.config;
        let experiment = experiments.entry(config.seed).or_insert_with(|| {
            let profile = spans.time("retention.profile", |_| config.build_profile());
            let plan = spans.time("core.plan", |_| config.build_plan(&profile));
            Experiment::from_artifacts(config, Arc::new(profile), Arc::new(plan))
        });
        let mut trace = || -> Result<Arc<Vec<TraceRecord>>, String> {
            let key = (config.seed, spec.benchmark.clone());
            if let Some(trace) = traces.get(&key) {
                return Ok(Arc::clone(trace));
            }
            let trace = spans
                .time("trace.gen", |_| {
                    experiment.materialize_trace(&spec.benchmark)
                })
                .map_err(|e| e.to_string())?;
            records += trace.len() as u64;
            let trace = Arc::new(trace);
            traces.insert(key, Arc::clone(&trace));
            Ok(trace)
        };
        let no_progress = |_| {};
        let (layer, outcome) = match spec.front_end {
            FrontEnd::Sim => {
                let trace = trace()?;
                let stats: SimStats = spans.time("dram.sim", |_| {
                    experiment.run_policy_spanned_with(
                        spec.policy,
                        trace.iter().copied(),
                        span_cycles,
                        no_progress,
                    )
                });
                ("dram.sim", Outcome::Sim(stats))
            }
            FrontEnd::FrFcfs { queue_depth } => {
                let trace = trace()?;
                let stats = spans.time("dram.frfcfs", |_| {
                    experiment.run_frfcfs_spanned_with(
                        spec.policy,
                        trace.iter().copied(),
                        queue_depth,
                        span_cycles,
                        no_progress,
                    )
                });
                (
                    "dram.frfcfs",
                    Outcome::FrFcfs(stats.map_err(|e| e.to_string())?),
                )
            }
            FrontEnd::Sched { banks } => {
                let trace = trace()?;
                let sched = experiment.sched_config(banks).map_err(|e| e.to_string())?;
                let stats = spans.time("sched.bank", |_| {
                    experiment.run_scheduled_spanned_with(
                        spec.policy,
                        sched,
                        trace.iter().copied(),
                        span_cycles,
                        no_progress,
                    )
                });
                (
                    "sched.bank",
                    Outcome::Sched(stats.map_err(|e| e.to_string())?),
                )
            }
            FrontEnd::Dimm {
                channels,
                ranks,
                banks_per_rank,
            } => {
                let trace = trace()?;
                let sched = experiment
                    .dimm_config(channels, ranks, banks_per_rank)
                    .map_err(|e| e.to_string())?;
                let stats = spans.time("sched.dimm", |_| {
                    (0..channels).try_fold(SchedStats::default(), |merged, channel| {
                        experiment
                            .run_dimm_channel_spanned_with(
                                spec.policy,
                                sched,
                                channel,
                                trace.iter().copied(),
                                span_cycles,
                                no_progress,
                            )
                            .map(|shard| merged.merge(&shard))
                    })
                });
                (
                    "sched.dimm",
                    Outcome::Sched(stats.map_err(|e| e.to_string())?),
                )
            }
            FrontEnd::Faulted { fault_seed, guard } => {
                // Faulted jobs stream their own trace, as the daemon does.
                let faults = FaultConfig::default_scenario(fault_seed);
                let guard = guard.then(GuardConfig::default);
                let outcome = spans.time("dram.faulted", |_| {
                    experiment.run_faulted(spec.policy, &spec.benchmark, &faults, guard.as_ref())
                });
                (
                    "dram.faulted",
                    Outcome::Faulted(outcome.map_err(|e| e.to_string())?),
                )
            }
        };
        *events.entry(layer).or_default() += engine_events(&outcome);
        let frame = spans.time("obs.snapshot", |_| result_frame(spec, &outcome));
        sampling_ms += probe.tick();
        if reply.result.as_deref() != Some(frame.as_str()) {
            return Err(format!(
                "in-process replay of {} differs from the served frame",
                r.line
            ));
        }
    }
    let traced = Phase {
        wall_ms: start.elapsed().as_secs_f64() * 1e3 - sampling_ms,
        host_factor: probe.factor(),
    };

    let mut report = LayerReport::new(&spans, traced, untraced);
    for (layer, n) in &events {
        report.set_per_event(&spans, layer, *n);
    }
    report.set("trace.records", records as f64);
    report.set(
        "trace.ns_per_record",
        spans.get("trace.gen").self_ns as f64 / records.max(1) as f64,
    );
    report.set("serve.rtt_us", mean(replies.iter().map(|r| r.rtt_ms * 1e3)));
    let hit_rtt_us = mean(hits.iter().map(|r| r.rtt_ms * 1e3));
    let decode = decode_us(grid, &mut report);
    report.set("serve.wire_us", hit_rtt_us - decode);
    report.set(
        "serve.frame_bytes",
        mean(replies.iter().map(|r| r.bytes as f64)),
    );
    scrape.record(&mut report);
    Ok(report)
}

pub fn run_warm(seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let golden = golden::frames(golden::SERVE_WARM)?;
    let mut rng = SeedRng::new(seed);
    let mut grid = warm_grid(run_seeds(&mut rng, 2)[1]);
    rng.shuffle(&mut grid);

    // Set-up: bind, connect, and fill the result cache with one cold
    // pass over the grid. Repeated on fresh daemons, which stay up to the
    // end so no cache is freed mid-run (that made peak RSS depend on the
    // allocator's timing); the last one serves the timed phase.
    let mut probe = HostProbe::new();
    let mut setup_s = Vec::new();
    let mut daemons = Vec::new();
    let mut fill = Vec::new();
    for _ in 0..WARM_SETUP_SAMPLES {
        probe.tick();
        let start = Instant::now();
        let (server, mut client) = start_daemon(&mut Vec::new())?;
        fill = grid
            .iter()
            .map(|r| submit(&mut client, &r.line))
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(start.elapsed().as_secs_f64());
        daemons.push((server, client));
    }
    let outcome = warm_phase(
        &golden,
        &grid,
        &fill,
        &mut daemons,
        seconds,
        traced,
        &mut probe,
    );
    for (server, client) in daemons {
        stop(server, client);
    }
    let (checked, untraced, layers) = outcome?;

    let per_pass_events: u64 = checked.iter().map(|(_, s)| s.events).sum();
    let replies = untraced.job_ms.len();
    Ok(Run {
        setup_s,
        wall_s: untraced.wall_s,
        attempted: replies as u64,
        failed: untraced.failed,
        // Simulated events carried by the replies: each reply delivers
        // its spec's recorded results.
        events: per_pass_events as f64 * replies as f64 / grid.len() as f64,
        job_ms: untraced.job_ms,
        ref_error_pct: ref_error_pct(&checked),
        probe,
        layers,
    })
}

/// serve-warm's checks and timed phase, on the last daemon of `daemons`.
fn warm_phase(
    golden: &FrameGolden,
    grid: &[Req],
    fill: &[Reply],
    daemons: &mut [(Server, Client)],
    seconds: f64,
    traced: bool,
    probe: &mut HostProbe,
) -> Result<(Checked, Replay, Option<LayerReport>), String> {
    let mut checked = Vec::new();
    let fill_failed = check(golden, grid, fill, &mut checked)?;
    if fill_failed > 0 {
        return Err(format!(
            "{fill_failed} cache-fill results disagree with the golden file"
        ));
    }
    let expected: Vec<&str> = fill.iter().filter_map(|r| r.result.as_deref()).collect();
    let (_, client) = daemons.last_mut().ok_or("no daemon started")?;

    let cycles = ((seconds * WARM_REFERENCE_REPLIES_PER_S / grid.len() as f64) as usize).max(1);
    let untraced = replay(client, grid, &expected, cycles, probe, None)?;
    println!(
        "# serve-warm: {cycles} grid cycles of {} requests, summed {} s, median cycle × cycles {} s",
        grid.len(),
        untraced.summed_s,
        untraced.wall_s
    );
    let layers = if traced {
        let untraced_factor = probe.factor();
        let (mut spans, mut traced_probe) = (Spans::default(), HostProbe::new());
        let traced = replay(
            client,
            grid,
            &expected,
            cycles,
            &mut traced_probe,
            Some(&mut spans),
        )?;
        let scrape = Scrape::take(client)?;
        // Summed, not median, times: the layer self times are sums too.
        let phases = [
            Phase {
                wall_ms: traced.summed_s * 1e3,
                host_factor: traced_probe.factor(),
            },
            Phase {
                wall_ms: untraced.summed_s * 1e3,
                host_factor: untraced_factor,
            },
        ];
        Some(trace_warm(grid, &traced, phases, &spans, &scrape))
    } else {
        None
    };
    Ok((checked, untraced, layers))
}

struct Replay {
    job_ms: Vec<f64>,
    bytes: usize,
    /// The median grid cycle's time × the number of cycles.
    wall_s: f64,
    /// The cycles' summed time.
    summed_s: f64,
    failed: u64,
}

/// Closed-loop replay of `cycles` passes through `grid`. Each reply must
/// repeat the cache-fill frame byte for byte.
///
/// Every cycle is the same work, and the phase's time is the median
/// cycle's time × `cycles`. Each round trip crosses three threads (client,
/// the daemon's connection thread and its worker), which together keep
/// about 1.4 of the host's two vCPUs busy, so a burst of contention from
/// other tenants stretches a whole run of cycles. In sets of ten runs of
/// identical code the summed time spread by up to 0.31 (interquartile
/// range ÷ median), the median cycle's by 0.04.
fn replay(
    client: &mut Client,
    grid: &[Req],
    expected: &[&str],
    cycles: usize,
    probe: &mut HostProbe,
    mut spans: Option<&mut Spans>,
) -> Result<Replay, String> {
    let (mut job_ms, mut bytes, mut failed) = (Vec::new(), 0, 0);
    let mut cycle_s = Vec::with_capacity(cycles);
    let (mut start, mut sampling_ms) = (Instant::now(), 0.0);
    for i in 0..cycles * grid.len() {
        let k = i % grid.len();
        let reply = match spans.as_deref_mut() {
            Some(spans) => spans.time("serve.rtt", |_| submit(client, &grid[k].line))?,
            None => submit(client, &grid[k].line)?,
        };
        if reply.result.as_deref() != Some(expected[k]) {
            failed += 1;
        }
        job_ms.push(reply.rtt_ms);
        bytes += reply.bytes;
        sampling_ms += probe.tick();
        if k + 1 == grid.len() {
            cycle_s.push(start.elapsed().as_secs_f64() - sampling_ms / 1e3);
            (start, sampling_ms) = (Instant::now(), 0.0);
        }
    }
    let median_s = stats::median(&cycle_s).ok_or("no grid cycle was replayed")?;
    Ok(Replay {
        wall_s: median_s * cycles as f64,
        summed_s: cycle_s.iter().sum(),
        job_ms,
        bytes,
        failed,
    })
}

/// serve-warm's layers: the traced replay's round trips, the request
/// decoding the daemon does per reply, and the daemon's own phase
/// histograms. `phases` are the traced and untraced replays of the same
/// requests.
fn trace_warm(
    grid: &[Req],
    traced: &Replay,
    [traced_phase, untraced_phase]: [Phase; 2],
    spans: &Spans,
    scrape: &Scrape,
) -> LayerReport {
    let mut report = LayerReport::new(spans, traced_phase, untraced_phase);
    let rtt_us = mean(traced.job_ms.iter().map(|ms| ms * 1e3));
    report.set("serve.rtt_us", rtt_us);
    let decode = decode_us(grid, &mut report);
    report.set("serve.wire_us", rtt_us - decode);
    report.set(
        "serve.frame_bytes",
        traced.bytes as f64 / traced.job_ms.len() as f64,
    );
    scrape.record(&mut report);
    report
}
