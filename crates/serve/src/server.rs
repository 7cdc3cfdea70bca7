//! The TCP daemon: accept loop, connection handling, job execution.
//!
//! One thread accepts connections; each connection gets a handler
//! thread that parses request lines and forwards response frames. Jobs
//! run on a shared [`TaskPool`]: the connection thread never simulates
//! anything itself; it enqueues a closure and relays the frames the
//! worker sends back over an in-process channel, writing every frame
//! already waiting in one go. A spec whose result frame is resident in
//! the memory result cache is the exception: the connection thread
//! answers it itself, with the same frames and lifecycle events a
//! worker would produce, in one write. Such a hit can therefore finish
//! before cold jobs queued earlier. Everything observable
//! (`serve.*` metrics, job lifecycle events, the artifact cache) hangs
//! off one `ServerInner` shared by every thread.
//!
//! Hostile or unlucky traffic is *shed at admission*, never buffered:
//! the accept loop bounds concurrent connections, the handler bounds
//! request-line bytes and idle time ([`crate::wire::LineReader`] +
//! `set_read_timeout`), and `submit` bounds the job queue — each
//! over-limit request gets one typed reject frame
//! ([`protocol::reject_frame`]) and a clean close or a healthy
//! connection, counted in `serve.shed.*` and surfaced as
//! [`EventKind::JobShed`]. No lock in this module propagates poison: a
//! panicked connection thread cannot wedge the daemon (the registries
//! it guards are consistent at every panic point).

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vrl_exec::TaskPool;
use vrl_obs::event::EventKind;
use vrl_obs::metrics::HistogramId;
use vrl_obs::{
    EventRing, MetricsRegistry, MetricsSnapshot, PhaseProfiler, ShedReason, SnapshotDelta,
    SnapshotRing,
};

use crate::cache::{ArtifactCache, CacheLimits, Shard};
use crate::disk::{DiskLoad, DiskTier};
use crate::limits::ServeLimits;
use crate::protocol::{self, HealthReport, MetricsFormat, Request};
use crate::runner;
use crate::spec::JobSpec;
use crate::subs::{SubNext, SubscriberQueue};
use crate::wire::{self, LineOutcome, LineReader};
use crate::{manifest, protocol::is_terminal};

/// `row` value for job lifecycle events — jobs have no DRAM row.
const NO_ROW: u32 = u32::MAX;

/// `job` value for shed events — the request was rejected before a job
/// id was assigned.
const NO_JOB: u64 = 0;

/// Bucket bounds (microseconds) for the per-phase job latency
/// histograms — exponential-ish from 50 µs to 10 s, covering everything
/// from a result-cache replay to a full-DIMM sweep.
const PHASE_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    10_000_000,
];

/// How long a subscriber drain loop parks before re-checking liveness.
const SUBSCRIBE_POLL: Duration = Duration::from_millis(100);

/// How long [`linger_close`] keeps discarding a rejected peer's input.
const LINGER: Duration = Duration::from_secs(1);

/// Closes a connection whose input is still arriving without resetting
/// it. Dropping a socket with unread bytes sends an RST, which fails
/// the peer's pending write before it can read the reject frame just
/// sent. Instead, shut the write half (the peer reads the frame, then
/// EOF) and discard input until the peer stops sending or [`LINGER`]
/// runs out.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Locks with poisoned-lock recovery: every mutex in this module guards
/// state that is consistent at any panic point (plain maps, rings), so
/// a panicked thread must not convert into a daemon-wide wedge.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writes one frame (see [`wire::write_frames`]); false once the peer
/// is gone.
fn write_frame(writer: &mut TcpStream, frame: &str) -> bool {
    wire::write_frames(writer, &[frame]).is_ok()
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the job pool (≥ 1).
    pub workers: usize,
    /// Progress-frame cadence in cycles (0 = no progress frames).
    pub span_cycles: u64,
    /// Queue manifest path for crash-consistent shutdown/resume.
    pub state_path: Option<PathBuf>,
    /// Capacity of the job lifecycle event ring.
    pub ring_capacity: usize,
    /// Admission-control limits (connections, queue, line bytes, idle).
    pub limits: ServeLimits,
    /// Per-shard artifact-cache byte budgets.
    pub cache: CacheLimits,
    /// Directory for the persistent result-frame tier; `None` keeps
    /// results memory-only. Corrupt files here are quarantined on load,
    /// never served.
    pub artifact_dir: Option<PathBuf>,
    /// Capacity of the metrics snapshot ring behind the `history`
    /// request (entries, not bytes; min 2).
    pub snapshot_ring: usize,
    /// Period of the background metrics sampler feeding the snapshot
    /// ring, in milliseconds. `0` disables the sampler — snapshots are
    /// then recorded only at job completion, which keeps tests
    /// deterministic.
    pub sample_interval_ms: u64,
    /// Per-subscriber event-frame queue capacity. A subscriber that
    /// falls further behind than this loses frames (drop-newest,
    /// gap-reported) instead of growing server memory.
    pub subscriber_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            span_cycles: 2_000_000,
            state_path: None,
            ring_capacity: 4096,
            limits: ServeLimits::default(),
            cache: CacheLimits::default(),
            artifact_dir: None,
            snapshot_ring: 240,
            sample_interval_ms: 0,
            subscriber_buffer: 1024,
        }
    }
}

/// `serve.cache.*` counter names per shard, in [`shard_levels`] order.
const SHARD_COUNTERS: [[&str; 3]; 4] = [
    [
        "serve.cache.profile_hits",
        "serve.cache.profile_misses",
        "serve.cache.profile_evictions",
    ],
    [
        "serve.cache.plan_hits",
        "serve.cache.plan_misses",
        "serve.cache.plan_evictions",
    ],
    [
        "serve.cache.trace_hits",
        "serve.cache.trace_misses",
        "serve.cache.trace_evictions",
    ],
    [
        "serve.cache.result_hits",
        "serve.cache.result_misses",
        "serve.cache.result_evictions",
    ],
];

/// `serve.cache.*` gauge names per shard, in [`shard_levels`] order.
const SHARD_GAUGES: [[&str; 2]; 4] = [
    [
        "serve.cache.profile_bytes",
        "serve.cache.profile_capacity_bytes",
    ],
    ["serve.cache.plan_bytes", "serve.cache.plan_capacity_bytes"],
    [
        "serve.cache.trace_bytes",
        "serve.cache.trace_capacity_bytes",
    ],
    [
        "serve.cache.result_bytes",
        "serve.cache.result_capacity_bytes",
    ],
];

/// One shard's (hits, misses, evictions) and (occupied, capacity) bytes.
fn shard_levels<T>(shard: &Shard<T>) -> ([u64; 3], [u64; 2]) {
    (
        [shard.hits(), shard.misses(), shard.evictions()],
        [shard.occupied_bytes(), shard.capacity_bytes()],
    )
}

/// Per-phase latency histograms, guarded by one mutex: every finished
/// job observes into them; `metrics()` copies their snapshot into the
/// assembled one.
#[derive(Debug)]
struct PhaseHists {
    reg: MetricsRegistry,
    queue_wait: HistogramId,
    artifact_build: HistogramId,
    run: HistogramId,
    serialize: HistogramId,
}

impl PhaseHists {
    fn new() -> PhaseHists {
        let mut reg = MetricsRegistry::new();
        let hist = |reg: &mut MetricsRegistry, name: &str| {
            reg.histogram(name, &PHASE_BOUNDS_US)
                .expect("fresh registry accepts the phase histogram bounds")
        };
        let queue_wait = hist(&mut reg, "serve.job.queue_wait_us");
        let artifact_build = hist(&mut reg, "serve.job.artifact_build_us");
        let run = hist(&mut reg, "serve.job.run_us");
        let serialize = hist(&mut reg, "serve.job.serialize_us");
        PhaseHists {
            reg,
            queue_wait,
            artifact_build,
            run,
            serialize,
        }
    }
}

/// A job accepted but not yet completed: the spec (what a "now"
/// shutdown checkpoints) plus its enqueue instant (queue-wait latency).
#[derive(Debug, Clone)]
struct PendingJob {
    spec: JobSpec,
    enqueued: Instant,
}

/// State shared by the accept loop, connection threads, and workers.
#[derive(Debug)]
struct ServerInner {
    cache: ArtifactCache,
    disk: Option<DiskTier>,
    pool: TaskPool,
    span_cycles: u64,
    limits: ServeLimits,
    state_path: Option<PathBuf>,
    addr: SocketAddr,
    next_job: AtomicU64,
    /// Jobs accepted but not yet completed (or quarantined) — exactly
    /// what a "now" shutdown checkpoints to the manifest.
    pending: Mutex<BTreeMap<u64, PendingJob>>,
    completed: AtomicU64,
    quarantined: AtomicU64,
    /// Connections currently open (admission-control gauge).
    open_conns: AtomicUsize,
    shed_conns: AtomicU64,
    shed_jobs: AtomicU64,
    shed_long_lines: AtomicU64,
    shed_timeouts: AtomicU64,
    ring: Mutex<EventRing>,
    accepting: AtomicBool,
    /// Daemon start instant — the epoch for `at_ms` timestamps and the
    /// health frame's uptime.
    started: Instant,
    /// Worker threads configured at bind (the health frame's
    /// `workers_total`; `pool.live_workers()` may be lower).
    workers_total: usize,
    /// Per-phase job latency histograms (see [`PhaseHists`]).
    phase: Mutex<PhaseHists>,
    /// Timestamped metrics snapshots behind the `history` request.
    snapshots: Mutex<SnapshotRing>,
    /// Live `subscribe` streams; producers fan event frames out to each
    /// bounded queue.
    subscribers: Mutex<Vec<Arc<SubscriberQueue>>>,
    /// Frames dropped by subscribers that have since disconnected (live
    /// drops are summed from the queues themselves).
    subs_dropped_retired: AtomicU64,
    /// Per-subscriber queue capacity (from the config).
    subscriber_buffer: usize,
}

impl ServerInner {
    /// Milliseconds since the daemon started — the timestamp on event
    /// frames and snapshot-ring entries.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn push_event(&self, job: u64, kind: EventKind) {
        lock_recover(&self.ring).push(job, 0, NO_ROW, kind);
        let subs = lock_recover(&self.subscribers);
        if subs.is_empty() {
            return;
        }
        // One render, fanned out; `offer` never blocks on a socket, so
        // a stalled subscriber costs its own frames, not server time.
        let frame = protocol::event_frame(self.now_ms(), job, &kind);
        for sub in subs.iter() {
            sub.offer(&frame);
        }
    }

    /// Registers a subscriber queue if the admission bound allows one
    /// more.
    fn add_subscriber(&self) -> Option<Arc<SubscriberQueue>> {
        let mut subs = lock_recover(&self.subscribers);
        if subs.len() >= self.limits.max_subscribers {
            return None;
        }
        let sub = Arc::new(SubscriberQueue::bounded(self.subscriber_buffer));
        subs.push(Arc::clone(&sub));
        Some(sub)
    }

    /// Deregisters a subscriber, folding its drop count into the
    /// retired total so `serve.subs.dropped` stays monotonic.
    fn drop_subscriber(&self, sub: &Arc<SubscriberQueue>) {
        let mut subs = lock_recover(&self.subscribers);
        if let Some(i) = subs.iter().position(|s| Arc::ptr_eq(s, sub)) {
            subs.remove(i);
        }
        drop(subs);
        self.subs_dropped_retired
            .fetch_add(sub.dropped(), Ordering::Relaxed);
    }

    /// Closes every live subscriber queue so their drain loops exit.
    fn close_subscribers(&self) {
        for sub in lock_recover(&self.subscribers).iter() {
            sub.close();
        }
    }

    /// Records the current metrics into the snapshot ring.
    fn record_snapshot(&self) {
        let snapshot = self.metrics();
        lock_recover(&self.snapshots).push(self.now_ms(), snapshot);
    }

    /// Feeds one job's measured phases into the latency histograms.
    /// Phases the profiler never recorded (e.g. `run` on a result-cache
    /// replay) are simply absent.
    fn observe_phases(&self, queue_wait: Option<Duration>, profiler: &PhaseProfiler) {
        let mut hists = lock_recover(&self.phase);
        let (qw, ab, run, ser) = (
            hists.queue_wait,
            hists.artifact_build,
            hists.run,
            hists.serialize,
        );
        if let Some(wait) = queue_wait {
            hists.reg.observe(qw, wait.as_micros() as u64);
        }
        for (phase, id) in [
            (runner::PHASE_ARTIFACT_BUILD, ab),
            (runner::PHASE_RUN, run),
            (runner::PHASE_SERIALIZE, ser),
        ] {
            if let Some(totals) = profiler.totals(phase) {
                hists.reg.observe(id, totals.wall.as_micros() as u64);
            }
        }
    }

    /// Counts one shed request and emits its [`EventKind::JobShed`].
    fn shed(&self, reason: ShedReason, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.push_event(NO_JOB, EventKind::JobShed { reason });
    }

    /// Validated spec → job id; the job runs on the pool, reporting
    /// frames into `sink` (when a client is attached).
    fn enqueue(self: &Arc<Self>, spec: JobSpec, sink: Option<mpsc::Sender<String>>) -> u64 {
        let job = self.next_job.fetch_add(1, Ordering::SeqCst) + 1;
        lock_recover(&self.pending).insert(
            job,
            PendingJob {
                spec: spec.clone(),
                enqueued: Instant::now(),
            },
        );
        let depth = self.pool.queue_depth() as u32 + 1;
        self.push_event(job, EventKind::JobQueued { depth });
        if let Some(sink) = &sink {
            let _ = sink.send(protocol::queued_frame(job, depth));
        }
        let inner = Arc::clone(self);
        let accepted = self
            .pool
            .submit(Box::new(move || inner.run_job(job, spec, sink.as_ref())));
        if !accepted {
            // Shutdown raced the submission; the job stays pending and
            // lands in the manifest for the next start.
            self.push_event(job, EventKind::JobQuarantined);
        }
        job
    }

    fn run_job(&self, job: u64, spec: JobSpec, sink: Option<&mpsc::Sender<String>>) {
        let send = |frame: String| {
            if let Some(sink) = sink {
                let _ = sink.send(frame);
            }
        };
        self.push_event(job, EventKind::JobStarted);
        send(protocol::state_frame(job, "running"));

        let queue_wait = lock_recover(&self.pending)
            .get(&job)
            .map(|p| p.enqueued.elapsed());
        let mut profiler = PhaseProfiler::new();
        let mut built_here = false;
        let hash = spec.canonical_hash();
        let result = self
            .cache
            .results
            .try_get_or_build::<vrl_dram::Error>(hash, || {
                // Memory miss: the disk tier (when configured) is the next
                // rung. A damaged file is quarantined and falls through to
                // a deterministic rebuild — corrupt bytes are never served.
                if let Some(disk) = &self.disk {
                    match disk.load(hash) {
                        DiskLoad::Hit(frame) => return Ok(Arc::new(frame)),
                        DiskLoad::Quarantined(why) => {
                            self.push_event(job, EventKind::ArtifactQuarantined);
                            eprintln!("vrl-serve: quarantined artifact {hash:016x}: {why}");
                        }
                        DiskLoad::Miss => {}
                    }
                }
                built_here = true;
                let frame = runner::run_with_cache_profiled(
                    &self.cache,
                    &spec,
                    self.span_cycles,
                    |progress| {
                        send(protocol::progress_frame(job, progress));
                    },
                    &mut profiler,
                )?;
                if let Some(disk) = &self.disk {
                    if let Err(e) = disk.store(hash, &frame) {
                        // The disk tier is an accelerator, not a
                        // correctness dependency; a failed store only
                        // costs a rebuild after the next eviction.
                        eprintln!("vrl-serve: failed to persist artifact {hash:016x}: {e}");
                    }
                }
                Ok(Arc::new(frame))
            });
        self.finish_job(
            job,
            queue_wait,
            &profiler,
            result.as_ref().ok().map(|_| !built_here),
        );
        match result {
            Ok(frame) => {
                send(protocol::state_frame(job, "done"));
                send((*frame).clone());
            }
            Err(e) => send(protocol::error_frame(&format!("job {job} failed: {e}"))),
        }
    }

    /// Completion bookkeeping for every job, whether a worker ran it or
    /// the connection thread answered it from the result cache:
    /// `cached` is `Some(from_cache)` for a result, `None` for a failed
    /// job. It all lands BEFORE the terminal frame is sent: the moment a
    /// client sees its result, counters, phase histograms, and the
    /// history ring already reflect the job — the ordering the
    /// exposition tests and CI smoke rely on.
    fn finish_job(
        &self,
        job: u64,
        queue_wait: Option<Duration>,
        profiler: &PhaseProfiler,
        cached: Option<bool>,
    ) {
        match cached {
            Some(cached) => {
                self.push_event(job, EventKind::JobCompleted { cached });
                self.completed.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.push_event(job, EventKind::JobQuarantined);
                self.quarantined.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.observe_phases(queue_wait, profiler);
        // Success or deterministic failure: either way the job must not
        // be re-run by a restarted server. Only a panic (which skips
        // this line) leaves the spec pending for the manifest.
        lock_recover(&self.pending).remove(&job);
        // Every terminal state lands one snapshot in the history ring,
        // so the `history` replay is deterministic even with the
        // background sampler disabled.
        self.record_snapshot();
    }

    /// Answers a memory result-cache hit on the connection thread: the
    /// same job id, events, bookkeeping and frames as the worker path,
    /// without the pool hop, and all five frames in one write. The job
    /// never waits in the queue, so it is never pending and its queue
    /// wait is zero. Returns whether the write succeeded.
    fn answer_hit(&self, writer: &mut TcpStream, hash: u64, result: &str) -> bool {
        let job = self.next_job.fetch_add(1, Ordering::SeqCst) + 1;
        let depth = self.pool.queue_depth() as u32 + 1;
        self.push_event(job, EventKind::JobQueued { depth });
        self.push_event(job, EventKind::JobStarted);
        self.finish_job(job, Some(Duration::ZERO), &PhaseProfiler::new(), Some(true));
        wire::write_frames(
            writer,
            &[
                protocol::ack_frame(job, hash).as_str(),
                &protocol::queued_frame(job, depth),
                &protocol::state_frame(job, "running"),
                &protocol::state_frame(job, "done"),
                result,
            ],
        )
        .is_ok()
    }

    /// Runs `spec` on the pool and relays its frames: the ack goes out
    /// with every frame already waiting (the queued frame at least), and
    /// after each blocking receive the frames that arrived meanwhile
    /// share the next write. Returns whether the connection is still
    /// usable.
    fn relay_job(self: &Arc<Self>, writer: &mut TcpStream, spec: JobSpec, hash: u64) -> bool {
        let (tx, rx) = mpsc::channel();
        let job = self.enqueue(spec, Some(tx));
        let mut batch = vec![protocol::ack_frame(job, hash)];
        loop {
            batch.extend(rx.try_iter());
            // A worker sends nothing after the terminal frame.
            let terminated = batch.last().is_some_and(|f| is_terminal(f));
            if wire::write_frames(writer, &batch).is_err() {
                return false;
            }
            if terminated {
                return true;
            }
            batch.clear();
            match rx.recv() {
                Ok(frame) => batch.push(frame),
                Err(_) => break,
            }
        }
        // The worker dropped the channel without a terminal frame: it
        // panicked mid-job. The spec is still pending, so a restart
        // resumes it.
        self.push_event(job, EventKind::JobQuarantined);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        write_frame(
            writer,
            &protocol::error_frame(&format!(
                "job {job} was lost to a worker panic; it will be resumed on restart"
            )),
        )
    }

    /// Stops intake and settles the queue. `drain`: finish everything,
    /// then write an empty manifest. `!drain` ("now"): checkpoint the
    /// queue as observed *at the shutdown request*, so a restarted
    /// server re-runs those jobs (in-flight work still completes — the
    /// engines have no preemption — but re-running is free of
    /// side effects because results are deterministic).
    fn finish(&self, drain: bool) -> usize {
        let saved = self.settle(drain);
        self.wake_accept();
        saved
    }

    /// [`finish`](Self::finish) without the accept-loop wake — the
    /// shutdown request handler settles first, writes its ack frame,
    /// and only then wakes the accept loop; waking earlier races the
    /// process exit against the ack write and the client can see EOF
    /// instead of the frame.
    fn settle(&self, drain: bool) -> usize {
        self.accepting.store(false, Ordering::SeqCst);
        let saved = if drain {
            self.pool.shutdown();
            self.save_manifest()
        } else {
            let saved = self.save_manifest();
            self.pool.shutdown();
            saved
        };
        // Wake subscriber drain loops so their connections close.
        self.close_subscribers();
        saved
    }

    /// Wakes the accept loop so it observes the cleared `accepting`
    /// flag and exits.
    fn wake_accept(&self) {
        let _ = TcpStream::connect(self.addr);
    }

    fn save_manifest(&self) -> usize {
        let jobs: Vec<JobSpec> = lock_recover(&self.pending)
            .values()
            .map(|p| p.spec.clone())
            .collect();
        if let Some(path) = &self.state_path {
            if let Err(e) = manifest::save(path, &jobs) {
                eprintln!("vrl-serve: failed to write queue manifest: {e}");
                return 0;
            }
        }
        jobs.len()
    }

    /// Current metrics, assembled from the live counters. It runs once
    /// per job, so it fills the snapshot's maps directly from static
    /// names.
    fn metrics(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let cache = &self.cache;
        let shards = [
            shard_levels(&cache.profiles),
            shard_levels(&cache.plans),
            shard_levels(&cache.traces),
            shard_levels(&cache.results),
        ];
        for ((counter_names, gauge_names), (counts, levels)) in
            SHARD_COUNTERS.iter().zip(&SHARD_GAUGES).zip(shards)
        {
            counters.extend(counter_names.map(String::from).into_iter().zip(counts));
            gauges.extend(gauge_names.map(String::from).into_iter().zip(levels));
        }
        let mut counter = |name: &str, value: u64| {
            counters.insert(name.to_owned(), value);
        };
        if let Some(disk) = &self.disk {
            counter("serve.cache.disk_stores", disk.stores());
            counter("serve.cache.disk_hits", disk.hits());
            counter("serve.cache.quarantined", disk.quarantined());
        }
        for (name, value) in [
            ("serve.jobs.completed", &self.completed),
            ("serve.jobs.quarantined", &self.quarantined),
            ("serve.shed.connections", &self.shed_conns),
            ("serve.shed.jobs", &self.shed_jobs),
            ("serve.shed.line_too_long", &self.shed_long_lines),
            ("serve.shed.timeout", &self.shed_timeouts),
        ] {
            counter(name, value.load(Ordering::Relaxed));
        }
        let mut gauge = |name: &str, value: u64| {
            gauges.insert(name.to_owned(), value);
        };
        gauge("serve.queue.depth", self.pool.queue_depth() as u64);
        gauge(
            "serve.conns.open",
            self.open_conns.load(Ordering::Relaxed) as u64,
        );
        {
            let ring = lock_recover(&self.ring);
            counter("serve.events.dropped", ring.dropped());
            counter("serve.events.offered", ring.offered());
            gauge("serve.events.capacity", ring.capacity() as u64);
        }
        {
            let subs = lock_recover(&self.subscribers);
            gauge("serve.subs.open", subs.len() as u64);
            let live_drops: u64 = subs.iter().map(|s| s.dropped()).sum();
            counter(
                "serve.subs.dropped",
                self.subs_dropped_retired.load(Ordering::Relaxed) + live_drops,
            );
        }
        {
            let snaps = lock_recover(&self.snapshots);
            gauge("serve.history.entries", snaps.len() as u64);
            counter("serve.history.evicted", snaps.evicted());
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms: lock_recover(&self.phase).reg.snapshot().histograms,
        }
    }

    /// The health report behind the `health` frame. Readiness is a pure
    /// function of observable state: accepting, at least one live pool
    /// worker, and queue depth under the admission bound.
    fn health(&self) -> HealthReport {
        let queue_depth = self.pool.queue_depth() as u64;
        let queue_limit = self.limits.max_queued_jobs as u64;
        let workers_live = self.pool.live_workers() as u64;
        let mut reasons = Vec::new();
        if !self.accepting.load(Ordering::SeqCst) {
            reasons.push("shutting_down");
        }
        if workers_live == 0 {
            reasons.push("no_live_workers");
        }
        if queue_depth >= queue_limit {
            reasons.push("queue_saturated");
        }
        HealthReport {
            ready: reasons.is_empty(),
            reasons,
            queue_depth,
            queue_limit,
            workers_live,
            workers_total: self.workers_total as u64,
            conns_open: self.open_conns.load(Ordering::Relaxed) as u64,
            conns_limit: self.limits.max_connections as u64,
            subscribers: lock_recover(&self.subscribers).len() as u64,
            uptime_ms: self.now_ms(),
        }
    }

    fn handle_connection(self: &Arc<Self>, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        if let Some(timeout) = self.limits.read_timeout() {
            let _ = read_half.set_read_timeout(Some(timeout));
        }
        let mut reader = LineReader::new(read_half, self.limits.max_line_bytes);
        let mut writer = stream;
        loop {
            let line = match reader.next_line() {
                LineOutcome::Line(line) => line,
                LineOutcome::Eof | LineOutcome::Err(_) => break,
                LineOutcome::TooLong => {
                    // The stream cannot be re-synchronized after an
                    // overrun; reject and close.
                    self.shed(ShedReason::LineTooLong, &self.shed_long_lines);
                    write_frame(
                        &mut writer,
                        &protocol::reject_frame(
                            ShedReason::LineTooLong,
                            &format!("request line exceeds {} bytes", self.limits.max_line_bytes),
                        ),
                    );
                    linger_close(&mut writer);
                    break;
                }
                LineOutcome::TimedOut => {
                    // A silent connection stops pinning a handler
                    // thread: one typed frame, then a clean close.
                    self.shed(ShedReason::Timeout, &self.shed_timeouts);
                    write_frame(
                        &mut writer,
                        &protocol::reject_frame(
                            ShedReason::Timeout,
                            &format!(
                                "connection idle longer than {} ms",
                                self.limits.read_timeout_ms
                            ),
                        ),
                    );
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            if !self.accepting.load(Ordering::SeqCst) {
                write_frame(
                    &mut writer,
                    &protocol::error_frame("server is shutting down"),
                );
                break;
            }
            match protocol::parse_request(&line) {
                Err(message) => {
                    if !write_frame(&mut writer, &protocol::error_frame(&message)) {
                        break;
                    }
                }
                Ok(Request::Ping) => {
                    if !write_frame(&mut writer, &protocol::pong_frame()) {
                        break;
                    }
                }
                Ok(Request::Stats) => {
                    if !write_frame(
                        &mut writer,
                        &protocol::stats_frame(&self.metrics().to_json()),
                    ) {
                        break;
                    }
                }
                Ok(Request::Health) => {
                    if !write_frame(&mut writer, &self.health().to_frame()) {
                        break;
                    }
                }
                Ok(Request::Metrics { format, prefix }) => {
                    let snapshot = self.metrics();
                    let frame = match format {
                        MetricsFormat::Text => protocol::metrics_text_frame(
                            &vrl_obs::render_exposition_filtered(&snapshot, prefix.as_deref()),
                        ),
                        MetricsFormat::Json => {
                            let mut snapshot = snapshot;
                            if let Some(prefix) = &prefix {
                                snapshot
                                    .counters
                                    .retain(|k, _| k.starts_with(prefix.as_str()));
                                snapshot
                                    .gauges
                                    .retain(|k, _| k.starts_with(prefix.as_str()));
                                snapshot
                                    .histograms
                                    .retain(|k, _| k.starts_with(prefix.as_str()));
                            }
                            protocol::metrics_json_frame(&snapshot.to_json())
                        }
                    };
                    if !write_frame(&mut writer, &frame) {
                        break;
                    }
                }
                Ok(Request::History { limit }) => {
                    let (entries, evicted, deltas) = {
                        let ring = lock_recover(&self.snapshots);
                        (ring.len(), ring.evicted(), ring.recent_deltas(limit))
                    };
                    let mut ok = write_frame(
                        &mut writer,
                        &protocol::history_frame(entries, deltas.len(), evicted),
                    );
                    for delta in &deltas {
                        if !ok {
                            break;
                        }
                        ok = write_frame(&mut writer, &protocol::history_delta_frame(delta));
                    }
                    if !ok || !write_frame(&mut writer, &protocol::history_end_frame()) {
                        break;
                    }
                }
                Ok(Request::Subscribe) => {
                    let Some(sub) = self.add_subscriber() else {
                        self.shed(ShedReason::Busy, &self.shed_conns);
                        if !write_frame(
                            &mut writer,
                            &protocol::reject_frame(
                                ShedReason::Busy,
                                &format!(
                                    "subscriber limit reached ({} live)",
                                    self.limits.max_subscribers
                                ),
                            ),
                        ) {
                            break;
                        }
                        continue;
                    };
                    // From here the connection is dedicated to the
                    // stream. A consumer that stops reading blocks only
                    // this thread's socket writes — bounded by the
                    // write timeout — while producers keep dropping
                    // into the queue's fixed window.
                    let _ = writer.set_write_timeout(self.limits.read_timeout());
                    let mut ok =
                        write_frame(&mut writer, &protocol::subscribed_frame(sub.capacity()));
                    while ok {
                        match sub.next(SUBSCRIBE_POLL) {
                            SubNext::Frame(frame) => {
                                ok = write_frame(&mut writer, &frame);
                            }
                            SubNext::Gap(dropped) => {
                                ok = write_frame(&mut writer, &protocol::event_gap_frame(dropped));
                            }
                            SubNext::Idle => {
                                if !self.accepting.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                            SubNext::Closed => break,
                        }
                    }
                    self.drop_subscriber(&sub);
                    break;
                }
                Ok(Request::Shutdown { drain }) => {
                    let saved = self.settle(drain);
                    write_frame(&mut writer, &protocol::shutdown_frame(drain, saved));
                    self.wake_accept();
                    break;
                }
                Ok(Request::Submit(spec)) => {
                    let queue_depth = self.pool.queue_depth();
                    if queue_depth >= self.limits.max_queued_jobs {
                        // Admission control: reject instead of growing
                        // the queue without bound. The connection stays
                        // healthy — a backing-off client can retry.
                        self.shed(ShedReason::Busy, &self.shed_jobs);
                        if !write_frame(
                            &mut writer,
                            &protocol::reject_frame(
                                ShedReason::Busy,
                                &format!("job queue is full ({queue_depth} pending)"),
                            ),
                        ) {
                            break;
                        }
                        continue;
                    }
                    // Disk-tier hits and misses take the pool.
                    let hash = spec.canonical_hash();
                    let ok = match self.cache.results.get(hash) {
                        Some(result) => self.answer_hit(&mut writer, hash, &result),
                        None => self.relay_job(&mut writer, spec, hash),
                    };
                    if !ok {
                        break;
                    }
                }
            }
        }
    }
}

/// Decrements the open-connection gauge even if the handler panics.
struct ConnGuard(Arc<ServerInner>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.open_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] (or send a `shutdown` request) first, or
/// [`Server::wait`] to block until a client shuts it down.
#[derive(Debug)]
pub struct Server {
    inner: Arc<ServerInner>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), resumes any queue manifest
    /// at the configured state path, and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the bind/listen error, or a failure creating the
    /// artifact directory.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let disk = match config.artifact_dir {
            Some(dir) => Some(
                DiskTier::open(dir)
                    .map_err(|e| std::io::Error::other(format!("cannot open artifact dir: {e}")))?,
            ),
            None => None,
        };
        let inner = Arc::new(ServerInner {
            cache: ArtifactCache::with_limits(config.cache),
            disk,
            pool: TaskPool::new(config.workers),
            span_cycles: config.span_cycles,
            limits: config.limits,
            state_path: config.state_path,
            addr: local,
            next_job: AtomicU64::new(0),
            pending: Mutex::new(BTreeMap::new()),
            completed: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            open_conns: AtomicUsize::new(0),
            shed_conns: AtomicU64::new(0),
            shed_jobs: AtomicU64::new(0),
            shed_long_lines: AtomicU64::new(0),
            shed_timeouts: AtomicU64::new(0),
            ring: Mutex::new(EventRing::with_capacity(config.ring_capacity)),
            accepting: AtomicBool::new(true),
            started: Instant::now(),
            workers_total: config.workers,
            phase: Mutex::new(PhaseHists::new()),
            snapshots: Mutex::new(SnapshotRing::with_capacity(config.snapshot_ring)),
            subscribers: Mutex::new(Vec::new()),
            subs_dropped_retired: AtomicU64::new(0),
            subscriber_buffer: config.subscriber_buffer,
        });
        // Baseline entry: the first job completion then yields a delta
        // relative to the fresh-start state.
        inner.record_snapshot();

        // Optional wall-clock sampler feeding the history ring. The
        // thread runs detached and exits once `accepting` clears.
        if config.sample_interval_ms > 0 {
            let sampler = Arc::clone(&inner);
            let interval = Duration::from_millis(config.sample_interval_ms);
            std::thread::Builder::new()
                .name("vrl-serve-sample".to_owned())
                .spawn(move || {
                    while sampler.accepting.load(Ordering::SeqCst) {
                        std::thread::sleep(interval);
                        sampler.record_snapshot();
                    }
                })?;
        }

        // Crash-consistent resume: re-enqueue every manifest job. The
        // jobs run detached (no client is attached), warming the
        // artifact and result caches with their deterministic outputs.
        if let Some(path) = inner.state_path.clone() {
            if path.exists() {
                match manifest::load(&path) {
                    Ok(jobs) => {
                        for spec in jobs {
                            inner.enqueue(spec, None);
                        }
                        let _ = std::fs::remove_file(&path);
                    }
                    Err(e) => eprintln!("vrl-serve: ignoring unreadable queue manifest: {e}"),
                }
            }
        }

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("vrl-serve-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if !accept_inner.accepting.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    // One-line frames + Nagle + delayed ACK = ~40ms
                    // per round trip; disable batching (best-effort).
                    let _ = stream.set_nodelay(true);
                    // Connection admission: over the cap, the stream
                    // gets one typed `busy` frame and a clean close —
                    // no handler thread, no buffering.
                    let open = accept_inner.open_conns.load(Ordering::SeqCst);
                    if open >= accept_inner.limits.max_connections {
                        accept_inner.shed(ShedReason::Busy, &accept_inner.shed_conns);
                        let frame = protocol::reject_frame(
                            ShedReason::Busy,
                            &format!("connection limit reached ({open} open)"),
                        );
                        write_frame(&mut stream, &frame);
                        continue;
                    }
                    accept_inner.open_conns.fetch_add(1, Ordering::SeqCst);
                    let conn_inner = Arc::clone(&accept_inner);
                    let spawned = std::thread::Builder::new()
                        .name("vrl-serve-conn".to_owned())
                        .spawn(move || {
                            let _guard = ConnGuard(Arc::clone(&conn_inner));
                            conn_inner.handle_connection(stream);
                        });
                    if spawned.is_err() {
                        accept_inner.open_conns.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })?;

        Ok(Server {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Current `serve.*` metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    /// Current liveness/readiness report — the same data the `health`
    /// frame carries.
    pub fn health(&self) -> crate::protocol::HealthReport {
        self.inner.health()
    }

    /// Live `subscribe` streams.
    pub fn subscriber_count(&self) -> usize {
        lock_recover(&self.inner.subscribers).len()
    }

    /// Event frames dropped by subscriber queues so far (live + already
    /// disconnected) — the bounded-slow-consumer check.
    pub fn subscriber_frames_dropped(&self) -> u64 {
        let live: u64 = lock_recover(&self.inner.subscribers)
            .iter()
            .map(|s| s.dropped())
            .sum();
        self.inner.subs_dropped_retired.load(Ordering::Relaxed) + live
    }

    /// Deltas currently derivable from the history snapshot ring.
    pub fn history_deltas(&self) -> Vec<SnapshotDelta> {
        lock_recover(&self.inner.snapshots).recent_deltas(None)
    }

    /// Job lifecycle events recorded so far.
    pub fn events(&self) -> Vec<vrl_obs::Event> {
        lock_recover(&self.inner.ring).events().to_vec()
    }

    /// Jobs accepted but not yet completed or quarantined — the leak
    /// check: after a drain shutdown this must be 0.
    pub fn pending_jobs(&self) -> usize {
        lock_recover(&self.inner.pending).len()
    }

    /// Jobs whose worker closure panicked (contained by the pool).
    pub fn pool_panics(&self) -> usize {
        self.inner.pool.panics()
    }

    /// Pool worker threads still alive (see
    /// [`TaskPool::live_workers`]).
    pub fn live_workers(&self) -> usize {
        self.inner.pool.live_workers()
    }

    /// Result-shard occupancy in cost-bytes — the memory-bound check
    /// the chaos harness asserts against
    /// [`CacheLimits::result_bytes`].
    pub fn result_cache_bytes(&self) -> u64 {
        self.inner.cache.results.occupied_bytes()
    }

    /// Programmatic shutdown; see
    /// [`Request::Shutdown`] for
    /// the drain/now semantics. Returns the number of jobs saved to the
    /// manifest.
    pub fn shutdown(mut self, drain: bool) -> usize {
        let saved = self.inner.finish(drain);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        saved
    }

    /// Blocks until a client's `shutdown` request stops the server.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}
