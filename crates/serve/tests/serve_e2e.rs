//! End-to-end tests for the `vrl serve` daemon: wire protocol frames,
//! served-vs-direct bit-identity for every front end, artifact sharing
//! under concurrency, warm-cache replay, and crash-consistent
//! shutdown/resume.
//!
//! Every geometry here is deliberately tiny (hundreds of rows, tens of
//! simulated milliseconds) so the full suite stays in CI budget while
//! still driving each engine end to end.

use std::time::{Duration, Instant};

use vrl_obs::event::EventKind;
use vrl_serve::spec::parse_spec;
use vrl_serve::{runner, Client, JobSpec, Server, ServerConfig};

/// Parses a spec the same way the daemon does.
fn spec(json: &str) -> JobSpec {
    parse_spec(&vrl_obs::json::parse(json).expect("test spec is valid JSON")).expect("test spec")
}

/// A daemon on an ephemeral loopback port.
fn start(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", config).expect("bind loopback")
}

fn submit_line(spec_json: &str) -> String {
    format!("{{\"type\":\"submit\",\"spec\":{spec_json}}}")
}

/// One small spec per front end reachable through `JobSpec`.
const FRONT_END_SPECS: [&str; 5] = [
    r#"{"benchmark":"x264","policy":"vrl","rows":128,"duration_ms":48}"#,
    r#"{"benchmark":"ferret","policy":"raidr","front_end":"frfcfs","queue_depth":4,"rows":128,"duration_ms":48}"#,
    r#"{"benchmark":"canneal","policy":"vrl-access","front_end":"sched","banks":4,"rows":128,"duration_ms":48}"#,
    r#"{"benchmark":"dedup","policy":"vrl","front_end":"dimm","channels":2,"ranks":1,"banks_per_rank":2,"rows":128,"duration_ms":48}"#,
    r#"{"benchmark":"vips","policy":"auto","front_end":"faulted","fault_seed":7,"guard":true,"rows":128,"duration_ms":48}"#,
];

#[test]
fn served_results_are_bit_identical_to_direct_runs_for_every_front_end() {
    let server = start(ServerConfig {
        workers: 2,
        span_cycles: 500_000,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();
    for spec_json in FRONT_END_SPECS {
        let mut client = Client::connect(&addr).expect("connect");
        let frames = client
            .submit_raw(&submit_line(spec_json))
            .expect("submission stream");
        let parsed = spec(spec_json);
        // Frame ordering: ack first, lifecycle states in order, result
        // frame terminal.
        assert!(
            frames[0].starts_with("{\"type\":\"ack\"")
                && frames[0].contains(&format!("{:016x}", parsed.canonical_hash())),
            "first frame must be the ack: {}",
            frames[0]
        );
        for state in ["\"queued\"", "\"running\"", "\"done\""] {
            assert!(
                frames
                    .iter()
                    .any(|f| f.starts_with("{\"type\":\"state\"") && f.contains(state)),
                "missing state {state} for {spec_json}: {frames:#?}"
            );
        }
        let served = frames.last().expect("terminal frame");
        let direct = runner::direct_result(&parsed).expect("direct run");
        assert_eq!(
            served, &direct,
            "served and direct results must be byte-identical for {spec_json}"
        );
    }
    server.shutdown(true);
}

#[test]
fn long_runs_stream_progress_frames() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 200_000,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let frames = client
        .submit_raw(&submit_line(
            r#"{"benchmark":"x264","policy":"vrl","rows":128,"duration_ms":64}"#,
        ))
        .expect("submission stream");
    let progress: Vec<&String> = frames
        .iter()
        .filter(|f| f.starts_with("{\"type\":\"progress\""))
        .collect();
    assert!(
        progress.len() >= 2,
        "a multi-span run must stream progress: {frames:#?}"
    );
    for frame in &progress {
        assert!(
            frame.contains("\"cycle\":") && frame.contains("\"end\":"),
            "{frame}"
        );
    }
    server.shutdown(true);
}

#[test]
fn concurrent_identical_submissions_share_every_artifact() {
    const CLIENTS: usize = 4;
    let server = start(ServerConfig {
        workers: 2,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();
    let spec_json = r#"{"benchmark":"streamcluster","policy":"vrl-access","front_end":"sched","banks":4,"rows":128,"duration_ms":48}"#;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let frames = client
                    .submit_raw(&submit_line(spec_json))
                    .expect("submission stream");
                frames.last().expect("terminal frame").clone()
            })
        })
        .collect();
    let results: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for other in &results[1..] {
        assert_eq!(
            &results[0], other,
            "all concurrent clients must receive byte-identical result frames"
        );
    }
    assert!(
        results[0].starts_with("{\"type\":\"result\""),
        "{}",
        results[0]
    );

    // The retention profile, refresh plan, trace, and engine run were
    // each built exactly once; the other three submissions were served
    // from the result shard.
    let metrics = server.metrics();
    assert_eq!(metrics.counter("serve.cache.profile_misses"), 1);
    assert_eq!(metrics.counter("serve.cache.plan_misses"), 1);
    assert_eq!(metrics.counter("serve.cache.trace_misses"), 1);
    assert_eq!(metrics.counter("serve.cache.result_misses"), 1);
    assert_eq!(
        metrics.counter("serve.cache.result_hits"),
        (CLIENTS - 1) as u64
    );
    assert_eq!(metrics.counter("serve.jobs.completed"), CLIENTS as u64);
    assert_eq!(metrics.counter("serve.jobs.quarantined"), 0);
    server.shutdown(true);
}

#[test]
fn warm_cache_replays_the_result_without_rebuilding() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let line =
        submit_line(r#"{"benchmark":"bodytrack","policy":"raidr","rows":128,"duration_ms":48}"#);
    let cold = client.submit_raw(&line).expect("cold submission");
    let warm = client.submit_raw(&line).expect("warm submission");
    assert_eq!(
        cold.last(),
        warm.last(),
        "replayed result must be identical"
    );

    let metrics = server.metrics();
    assert_eq!(metrics.counter("serve.cache.result_misses"), 1);
    assert_eq!(metrics.counter("serve.cache.result_hits"), 1);
    assert_eq!(metrics.counter("serve.cache.trace_misses"), 1);
    assert_eq!(metrics.counter("serve.cache.trace_hits"), 0);

    // The lifecycle event stream distinguishes the fresh build from the
    // cached replay.
    let completions: Vec<bool> = server
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::JobCompleted { cached } => Some(cached),
            _ => None,
        })
        .collect();
    assert_eq!(completions, [false, true]);
    server.shutdown(true);
}

/// Pins what a result-cache hit puts on the wire, in the event ring and
/// in the history ring: the exact frame sequence, the three lifecycle
/// events back to back, and one snapshot per hit.
#[test]
fn result_cache_hits_replay_the_pinned_frames_events_and_history() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let spec_json =
        r#"{"benchmark":"swaptions","policy":"vrl-access","rows":128,"duration_ms":48}"#;
    let hash = spec(spec_json).canonical_hash();
    let line = submit_line(spec_json);
    let cold = client.submit_raw(&line).expect("cold submission");
    let cold_result = cold.last().expect("terminal frame").clone();
    assert!(
        cold_result.starts_with("{\"type\":\"result\""),
        "{cold_result}"
    );

    for job in [2u64, 3] {
        // The queued depth counts running jobs too; wait for the cold
        // job's worker to return so the depth is exactly 1.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.health().queue_depth > 0 {
            assert!(Instant::now() < deadline, "the pool never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
        let deltas_before = server.history_deltas().len();
        let frames = client.submit_raw(&line).expect("warm submission");
        assert_eq!(
            frames,
            [
                format!("{{\"type\":\"ack\",\"job\":{job},\"spec_hash\":\"{hash:016x}\"}}"),
                format!("{{\"type\":\"state\",\"job\":{job},\"state\":\"queued\",\"depth\":1}}"),
                format!("{{\"type\":\"state\",\"job\":{job},\"state\":\"running\"}}"),
                format!("{{\"type\":\"state\",\"job\":{job},\"state\":\"done\"}}"),
                cold_result.clone(),
            ]
        );

        let events = server.events();
        let first = events
            .iter()
            .position(|e| e.cycle == job)
            .expect("the hit's events are recorded");
        let kinds: Vec<(u64, EventKind)> = events[first..]
            .iter()
            .take(3)
            .map(|e| (e.cycle, e.kind))
            .collect();
        assert_eq!(
            kinds,
            [
                (job, EventKind::JobQueued { depth: 1 }),
                (job, EventKind::JobStarted),
                (job, EventKind::JobCompleted { cached: true }),
            ]
        );
        assert_eq!(events.iter().filter(|e| e.cycle == job).count(), 3);

        let deltas = server.history_deltas();
        assert_eq!(deltas.len(), deltas_before + 1, "one snapshot per hit");
        let delta = &deltas.last().expect("a delta per hit").delta;
        assert_eq!(delta.counter("serve.jobs.completed"), 1);
        assert_eq!(delta.counter("serve.cache.result_hits"), 1);
    }
    server.shutdown(true);
}

#[test]
fn faulted_jobs_replay_the_trace_a_sim_job_cached() {
    let server = start(ServerConfig {
        workers: 1,
        span_cycles: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let sim = r#"{"benchmark":"ferret","policy":"vrl","rows":128,"duration_ms":48}"#;
    let faulted = r#"{"benchmark":"ferret","policy":"vrl","front_end":"faulted","fault_seed":3,"guard":false,"rows":128,"duration_ms":48}"#;

    client
        .submit_raw(&submit_line(sim))
        .expect("sim submission");
    let before = server.metrics();
    assert_eq!(before.counter("serve.cache.trace_misses"), 1);

    let frames = client
        .submit_raw(&submit_line(faulted))
        .expect("faulted submission");
    let direct = runner::direct_result(&spec(faulted)).expect("direct run");
    assert_eq!(frames.last().expect("terminal frame"), &direct);

    // Same (benchmark, rows, seed, duration): the faulted job read the
    // sim job's trace instead of generating its own.
    let after = server.metrics();
    assert_eq!(
        after.counter("serve.cache.trace_hits"),
        before.counter("serve.cache.trace_hits") + 1
    );
    assert_eq!(
        after.counter("serve.cache.trace_misses"),
        before.counter("serve.cache.trace_misses")
    );
    server.shutdown(true);
}

#[test]
fn malformed_requests_error_without_killing_the_connection() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");

    // Unparseable line.
    let frame = client.request_one("this is not json").expect("error frame");
    assert!(frame.starts_with("{\"type\":\"error\""), "{frame}");

    // Unknown request type.
    let frame = client
        .request_one("{\"type\":\"launch\"}")
        .expect("error frame");
    assert!(frame.contains("unknown request type"), "{frame}");

    // Spec validation failures blame the offending field.
    for (line, blamed) in [
        (r#"{"type":"submit","spec":{"policy":"vrl"}}"#, "benchmark"),
        (
            r#"{"type":"submit","spec":{"benchmark":"x264","policy":"nope"}}"#,
            "policy",
        ),
        (
            r#"{"type":"submit","spec":{"benchmark":"x264","policy":"vrl","rows":0}}"#,
            "rows",
        ),
        (
            r#"{"type":"submit","spec":{"benchmark":"x264","policy":"vrl","queue_depth":8}}"#,
            "queue_depth",
        ),
        (
            r#"{"type":"submit","spec":{"benchmark":"x264","policy":"vrl","typo_knob":1}}"#,
            "typo_knob",
        ),
    ] {
        let frame = client.request_one(line).expect("error frame");
        assert!(
            frame.starts_with("{\"type\":\"error\"") && frame.contains(blamed),
            "expected an error blaming {blamed}: {frame}"
        );
    }

    // The connection is still healthy afterwards.
    assert_eq!(client.ping().expect("pong"), "{\"type\":\"pong\"}");
    let stats = client.stats().expect("stats frame");
    assert!(
        stats.starts_with("{\"type\":\"stats\"") && stats.contains("serve.jobs.completed"),
        "{stats}"
    );
    server.shutdown(true);
}

#[test]
fn now_shutdown_checkpoints_the_queue_and_a_restart_resumes_it() {
    let dir = std::env::temp_dir().join("vrl-serve-resume-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let state = dir.join("queue.snap");
    let _ = std::fs::remove_file(&state);
    let config = ServerConfig {
        workers: 1,
        span_cycles: 0,
        state_path: Some(state.clone()),
        ..ServerConfig::default()
    };

    // One worker: the occupier holds it while more jobs pile up behind,
    // so a "now" shutdown observes a non-empty queue.
    let queued_specs = [
        r#"{"benchmark":"facesim","policy":"vrl","rows":96,"duration_ms":32}"#,
        r#"{"benchmark":"fluidanimate","policy":"raidr","rows":96,"duration_ms":32}"#,
    ];
    let server = start(config.clone());
    let addr = server.addr().to_string();
    let mut submitters: Vec<Client> = Vec::new();
    for spec_json in std::iter::once(
        // The occupier: big enough to still be running at shutdown.
        &r#"{"benchmark":"x264","policy":"vrl","rows":1024,"duration_ms":192}"#,
    )
    .chain(queued_specs.iter())
    {
        let mut client = Client::connect(&addr).expect("connect");
        // Submit without waiting for the terminal frame: read only the
        // ack so the job is definitely registered before moving on.
        let ack = client
            .request_one(&submit_line(spec_json))
            .expect("ack frame");
        assert!(ack.starts_with("{\"type\":\"ack\""), "{ack}");
        submitters.push(client);
    }

    // "now": checkpoint the pending queue (in-flight work still
    // completes — the engines have no preemption).
    let saved = server.shutdown(false);
    assert!(saved >= 1, "the occupier alone must still be pending");
    let manifest = vrl_serve::manifest::load(&state).expect("manifest readable");
    assert_eq!(manifest.len(), saved);
    drop(submitters);

    // Restart against the same state path: the manifest jobs re-run
    // detached and the file is consumed.
    let restarted = start(config);
    let deadline = Instant::now() + Duration::from_secs(120);
    while restarted.metrics().counter("serve.jobs.completed") < saved as u64 {
        assert!(
            Instant::now() < deadline,
            "resumed jobs did not complete in time: {}",
            restarted.metrics().to_json()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!state.exists(), "the manifest must be consumed on resume");

    // Every checkpointed spec now replays from the result shard,
    // byte-identical to a direct run.
    let mut client = Client::connect(&restarted.addr().to_string()).expect("connect");
    for job in &manifest {
        let hits_before = restarted.metrics().counter("serve.cache.result_hits");
        let direct = runner::direct_result(job).expect("direct run");
        let frames = client
            .submit_raw(&submit_line(&job_to_json(job)))
            .expect("submission stream");
        assert_eq!(frames.last().expect("terminal frame"), &direct);
        assert_eq!(
            restarted.metrics().counter("serve.cache.result_hits"),
            hits_before + 1,
            "a resumed job's spec must be a warm result-cache hit"
        );
    }
    restarted.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Renders a parsed spec back to request JSON (the spec module accepts
/// exactly these fields).
fn job_to_json(job: &JobSpec) -> String {
    use vrl_serve::FrontEnd;
    let mut out = format!(
        "{{\"benchmark\":\"{}\",\"policy\":\"{}\",\"rows\":{},\"cells_per_row\":{},\"seed\":{},\"duration_ms\":{},\"nbits\":{},\"guard_band\":{}",
        job.benchmark,
        job.policy.name(),
        job.config.rows,
        job.config.cells_per_row,
        job.config.seed,
        job.config.duration_ms,
        job.config.nbits,
        job.config.guard_band,
    );
    match job.front_end {
        FrontEnd::Sim => {}
        FrontEnd::FrFcfs { queue_depth } => {
            out.push_str(&format!(
                ",\"front_end\":\"frfcfs\",\"queue_depth\":{queue_depth}"
            ));
        }
        FrontEnd::Sched { banks } => {
            out.push_str(&format!(",\"front_end\":\"sched\",\"banks\":{banks}"));
        }
        FrontEnd::Dimm {
            channels,
            ranks,
            banks_per_rank,
        } => {
            out.push_str(&format!(
                ",\"front_end\":\"dimm\",\"channels\":{channels},\"ranks\":{ranks},\"banks_per_rank\":{banks_per_rank}"
            ));
        }
        FrontEnd::Faulted { fault_seed, guard } => {
            out.push_str(&format!(
                ",\"front_end\":\"faulted\",\"fault_seed\":{fault_seed},\"guard\":{guard}"
            ));
        }
    }
    out.push('}');
    out
}
