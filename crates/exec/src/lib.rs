//! # vrl-exec — the parallel experiment execution engine
//!
//! A dependency-free `std::thread` scoped worker pool that fans a batch
//! of independent jobs (typically one `(benchmark × policy)` simulation
//! each) across cores and returns results **in job order**, regardless
//! of which worker finished first. This is the determinism contract the
//! experiment harness builds on: the parallel path must be bit-identical
//! to the serial path, so scheduling freedom is confined to *when* a job
//! runs, never to *what* is returned or in what order.
//!
//! Design:
//!
//! * **Shared job queue** — workers claim one job index at a time from
//!   a shared atomic cursor; each result is written into its job's
//!   dedicated slot.
//! * **Run to completion** — a failing or panicking job does not cancel
//!   its siblings; after all jobs finish, the failure with the *lowest
//!   job index* is propagated (deterministic error selection).
//! * **Typed failures** — worker panics are caught and surfaced as
//!   [`ExecError::Panic`] with the job index and panic message; job
//!   errors keep their domain type via [`ExecError::Job`].
//! * **Inline fast path** — with one worker (or one job) everything runs
//!   on the calling thread: no spawn overhead, identical semantics.
//!
//! # Example
//!
//! ```
//! use vrl_exec::{map_ordered, ExecConfig};
//!
//! let cfg = ExecConfig::new(4);
//! let squares = map_ordered(&cfg, &[1u64, 2, 3, 4], |_idx, &x| {
//!     Ok::<u64, std::convert::Infallible>(x * x)
//! })
//! .expect("no job fails");
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "VRL_THREADS";

/// The number of workers the host offers (`available_parallelism`,
/// falling back to 1 when the host cannot say).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads to spawn (clamped to at least 1 and at most the
    /// job count at run time).
    pub workers: usize,
}

impl ExecConfig {
    /// A pool with `workers` threads.
    pub fn new(workers: usize) -> Self {
        ExecConfig {
            workers: workers.max(1),
        }
    }

    /// The default pool: `VRL_THREADS` if set and parseable, otherwise
    /// the host's available parallelism.
    pub fn from_env() -> Self {
        let workers = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w > 0)
            .unwrap_or_else(available_workers);
        Self::new(workers)
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A failure from the worker pool, preserving the job's domain error
/// type `E`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError<E> {
    /// The job at `job` panicked; `message` is the rendered payload.
    Panic {
        /// Index of the job that panicked.
        job: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The job at `job` returned an error.
    Job {
        /// Index of the failing job.
        job: usize,
        /// The job's own error.
        error: E,
    },
    /// The pool finished without ever producing a result for `job` — a
    /// pool-logic bug (a dropped claim or an unwritten slot), surfaced as
    /// a typed error instead of panicking the caller.
    Lost {
        /// Index of the job whose result slot was empty.
        job: usize,
    },
}

impl<E: fmt::Display> fmt::Display for ExecError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Panic { job, message } => {
                write!(f, "worker panicked on job {job}: {message}")
            }
            ExecError::Job { job, error } => write!(f, "job {job} failed: {error}"),
            ExecError::Lost { job } => {
                write!(f, "pool bug: job {job} never produced a result")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for ExecError<E> {}

/// What the pool measured while running a batch: wall-clock and
/// per-worker busy time, the raw material of the throughput meter.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Workers that actually ran (after clamping to the job count).
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Busy (job-executing) time per worker, indexed by worker id.
    pub busy: Vec<Duration>,
    /// Wall-clock time of each job, indexed by job id — the profiling
    /// substrate the observability layer's per-phase breakdown reads.
    pub job_wall: Vec<Duration>,
}

impl PoolReport {
    /// Per-worker utilization in `[0, 1]`: busy time over wall time.
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        self.busy
            .iter()
            .map(|b| (b.as_secs_f64() / wall).min(1.0))
            .collect()
    }

    /// Mean utilization across workers.
    pub fn mean_utilization(&self) -> f64 {
        let u = self.utilization();
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }

    /// The slowest job as `(job index, wall time)`, or `None` for an
    /// empty batch — the straggler a load-balance investigation starts
    /// from.
    pub fn slowest_job(&self) -> Option<(usize, Duration)> {
        self.job_wall
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, d)| d)
    }
}

/// Runs `f` over every item, fanning across `cfg.workers` threads, and
/// returns the results **in item order**.
///
/// See [`map_ordered_report`] for the variant that also reports pool
/// timings.
///
/// # Errors
///
/// Returns the lowest-job-index failure: a worker panic as
/// [`ExecError::Panic`], a job error as [`ExecError::Job`]. All jobs run
/// to completion either way.
pub fn map_ordered<I, T, E, F>(cfg: &ExecConfig, items: &[I], f: F) -> Result<Vec<T>, ExecError<E>>
where
    I: Sync,
    T: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<T, E> + Sync,
{
    map_ordered_report(cfg, items, f).0
}

/// Like [`map_ordered`], additionally returning the [`PoolReport`] with
/// wall-clock and per-worker busy timings.
pub fn map_ordered_report<I, T, E, F>(
    cfg: &ExecConfig,
    items: &[I],
    f: F,
) -> (Result<Vec<T>, ExecError<E>>, PoolReport)
where
    I: Sync,
    T: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<T, E> + Sync,
{
    let jobs = items.len();
    let workers = cfg.workers.max(1).min(jobs.max(1));
    let started = Instant::now();

    let mut slots: Vec<Option<Result<T, ExecError<E>>>> = Vec::new();
    slots.resize_with(jobs, || None);
    let mut busy = vec![Duration::ZERO; workers];
    let mut job_wall = vec![Duration::ZERO; jobs];

    if workers <= 1 {
        let t0 = Instant::now();
        for (idx, item) in items.iter().enumerate() {
            let j0 = Instant::now();
            slots[idx] = Some(run_one(&f, idx, item));
            job_wall[idx] = j0.elapsed();
        }
        busy[0] = t0.elapsed();
    } else {
        let cursor = AtomicUsize::new(0);
        let shared_slots = Mutex::new(&mut slots);
        let shared_busy = Mutex::new(&mut busy);
        let shared_job_wall = Mutex::new(&mut job_wall);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let f = &f;
                let cursor = &cursor;
                let shared_slots = &shared_slots;
                let shared_busy = &shared_busy;
                let shared_job_wall = &shared_job_wall;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= jobs {
                            break;
                        }
                        let j0 = Instant::now();
                        let out = run_one(f, idx, &items[idx]);
                        let elapsed = j0.elapsed();
                        let mut guard = shared_slots.lock().expect("result lock");
                        guard[idx] = Some(out);
                        drop(guard);
                        let mut guard = shared_job_wall.lock().expect("job-wall lock");
                        guard[idx] = elapsed;
                    }
                    let elapsed = t0.elapsed();
                    let mut guard = shared_busy.lock().expect("busy lock");
                    guard[worker] = elapsed;
                });
            }
        });
    }

    let report = PoolReport {
        workers,
        jobs,
        wall: started.elapsed(),
        busy,
        job_wall,
    };
    let mut out = Vec::with_capacity(jobs);
    for (idx, slot) in slots.into_iter().enumerate() {
        match slot {
            // The lowest failing index is reached first in this scan; an
            // empty slot is a pool-logic failure at that index.
            None => return (Err(ExecError::Lost { job: idx }), report),
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return (Err(e), report),
        }
    }
    (Ok(out), report)
}

/// Runs one job under `catch_unwind`, mapping a panic to
/// [`ExecError::Panic`].
fn run_one<I, T, E, F>(f: &F, idx: usize, item: &I) -> Result<T, ExecError<E>>
where
    F: Fn(usize, &I) -> Result<T, E>,
{
    match catch_unwind(AssertUnwindSafe(|| f(idx, item))) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(ExecError::Job { job: idx, error: e }),
        Err(payload) => Err(ExecError::Panic {
            job: idx,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Supervision policy for [`map_supervised`]: bounded retry with
/// deterministic backoff, per-job virtual deadlines, panic quarantine,
/// and graceful degradation to serial execution.
///
/// Everything is *virtual-time* deterministic: backoffs are seeded
/// hashes that are **recorded, never slept**, and deadlines are budgets
/// of virtual ticks, not wall-clock timers. Each job's supervision is a
/// pure function of the job index and this policy, so the supervised
/// outcome (results, events, counters) is bit-identical across pool
/// shapes — the same contract [`map_ordered`] upholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervisor {
    /// Retries granted after a job's first panicking attempt (so a job
    /// runs at most `1 + max_retries` times). Typed job errors
    /// ([`ExecError::Job`]) are deterministic domain failures and are
    /// quarantined immediately, never retried.
    pub max_retries: u32,
    /// Per-job virtual-tick budget; each attempt costs one tick and each
    /// backoff costs its tick count. A retry that would exceed the budget
    /// quarantines the job with a deadline event instead. `0` disables
    /// the deadline.
    pub virtual_deadline: u64,
    /// Base backoff in virtual ticks; attempt `k` backs off roughly
    /// `base · 2^(k−1)` ticks, jittered deterministically.
    pub backoff_base: u64,
    /// Seed for the backoff jitter hash.
    pub backoff_seed: u64,
    /// Panicking jobs tolerated before the batch degrades to serial
    /// execution (`0` disables degradation). Degradation is decided
    /// *after* the batch from the per-job outcomes, so the decision — and
    /// every emitted event — is identical on any pool shape.
    pub degrade_after: u32,
}

impl Supervisor {
    /// A forgiving default: 2 retries, exponential backoff from 16
    /// ticks, no deadline, degrade after 2 panicking jobs.
    pub fn new() -> Self {
        Supervisor {
            max_retries: 2,
            virtual_deadline: 0,
            backoff_base: 16,
            backoff_seed: 0x5eed_0bac_c0ff_ee00,
            degrade_after: 2,
        }
    }

    /// The deterministic backoff (in virtual ticks) before retry number
    /// `attempt` of `job`: exponential in the attempt with a seeded
    /// jitter of up to the base, never zero.
    pub fn backoff(&self, job: usize, attempt: u32) -> u64 {
        let base = self.backoff_base.max(1);
        let window = base.saturating_mul(1u64 << attempt.min(16));
        let mut h = self.backoff_seed ^ 0x9E37_79B9_7F4A_7C15;
        for word in [job as u64, attempt as u64] {
            h ^= word.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = h.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
        }
        window / 2 + h % (window / 2).max(1) + 1
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::new()
    }
}

/// One supervision decision, in job order within the batch. The
/// observability layer maps these 1:1 onto typed trace events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// Attempt `attempt` of `job` panicked; the job will run again after
    /// a recorded (not slept) backoff of `backoff` virtual ticks.
    Retry {
        /// Index of the retried job.
        job: usize,
        /// The attempt number that failed (1-based).
        attempt: u32,
        /// Backoff charged to the job's virtual clock, in ticks.
        backoff: u64,
    },
    /// The job's virtual clock exhausted [`Supervisor::virtual_deadline`]
    /// before it succeeded.
    DeadlineExceeded {
        /// Index of the job.
        job: usize,
        /// Virtual ticks spent when the budget ran out.
        spent: u64,
    },
    /// The job was removed from the batch; its siblings keep running and
    /// the batch completes.
    Quarantined {
        /// Index of the quarantined job.
        job: usize,
        /// Attempts the job was given.
        attempts: u32,
        /// Whether the final failure was a panic (vs a typed job error).
        panicked: bool,
    },
    /// Repeated pool failures degraded the batch to serial execution.
    Degraded {
        /// Panicking jobs observed when the batch degraded.
        failures: u32,
    },
}

/// Aggregate supervision counters for one batch, exported by the
/// observability layer as `exec.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Retries granted across all jobs.
    pub retries: u64,
    /// Jobs quarantined.
    pub quarantined: u64,
    /// Jobs that hit their virtual deadline.
    pub deadline_exceeded: u64,
    /// Panicking attempts observed.
    pub panics: u64,
    /// 1 if the batch degraded to serial execution.
    pub degraded: u64,
}

/// A job removed from a supervised batch, with its final failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined<E> {
    /// Index of the job.
    pub job: usize,
    /// Attempts the job was given.
    pub attempts: u32,
    /// The failure that ended supervision (a panic or a typed error).
    pub error: ExecError<E>,
}

impl<E: fmt::Display> fmt::Display for Quarantined<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} quarantined after {} attempt(s): {}",
            self.job, self.attempts, self.error
        )
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for Quarantined<E> {}

/// The outcome of one supervised batch: per-job results (quarantined
/// jobs carry their typed failure in place), the supervision events in
/// job order, aggregate counters, and the pool timing report.
#[derive(Debug)]
pub struct SupervisedBatch<T, E> {
    /// One entry per job, in job order.
    pub results: Vec<Result<T, Quarantined<E>>>,
    /// Supervision events, ordered by job index (then occurrence), with
    /// a trailing [`SupervisorEvent::Degraded`] if the batch degraded.
    pub events: Vec<SupervisorEvent>,
    /// Aggregate counters over `events`.
    pub counters: SupervisorCounters,
    /// Whether the batch degraded to serial execution.
    pub degraded: bool,
    /// Pool timings of the (final) pass.
    pub report: PoolReport,
}

/// Runs one job under the supervision policy: retry on panic with
/// deterministic backoff, quarantine on exhaustion, deadline on the
/// virtual clock. Pure in `(sup, idx)` for a deterministic `f`.
fn supervise_one<I, T, E, F>(
    sup: &Supervisor,
    f: &F,
    idx: usize,
    item: &I,
) -> (Result<T, Quarantined<E>>, Vec<SupervisorEvent>)
where
    F: Fn(usize, &I) -> Result<T, E>,
{
    let mut events = Vec::new();
    let mut spent: u64 = 0;
    let mut attempt: u32 = 1;
    loop {
        spent += 1;
        match run_one(f, idx, item) {
            Ok(v) => return (Ok(v), events),
            Err(error) => {
                let panicked = matches!(error, ExecError::Panic { .. });
                if panicked && attempt <= sup.max_retries {
                    let backoff = sup.backoff(idx, attempt);
                    if sup.virtual_deadline > 0 && spent + backoff > sup.virtual_deadline {
                        events.push(SupervisorEvent::DeadlineExceeded { job: idx, spent });
                        events.push(SupervisorEvent::Quarantined {
                            job: idx,
                            attempts: attempt,
                            panicked,
                        });
                        return (
                            Err(Quarantined {
                                job: idx,
                                attempts: attempt,
                                error,
                            }),
                            events,
                        );
                    }
                    spent += backoff;
                    events.push(SupervisorEvent::Retry {
                        job: idx,
                        attempt,
                        backoff,
                    });
                    attempt += 1;
                    continue;
                }
                events.push(SupervisorEvent::Quarantined {
                    job: idx,
                    attempts: attempt,
                    panicked,
                });
                return (
                    Err(Quarantined {
                        job: idx,
                        attempts: attempt,
                        error,
                    }),
                    events,
                );
            }
        }
    }
}

/// Like [`map_ordered`], but failures no longer abort the batch: each
/// job runs under the [`Supervisor`] policy (panic retry with recorded
/// backoff, virtual deadline, quarantine) and the batch always returns
/// one entry per job. After the batch, if `sup.degrade_after` panicking
/// jobs were seen (or the pool itself failed), the whole batch is re-run
/// serially — per-job supervision is pure, so the serial pass reproduces
/// the parallel pass bit for bit, and a [`SupervisorEvent::Degraded`]
/// marker is appended.
pub fn map_supervised<I, T, E, F>(
    cfg: &ExecConfig,
    sup: &Supervisor,
    items: &[I],
    f: F,
) -> SupervisedBatch<T, E>
where
    I: Sync,
    T: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<T, E> + Sync,
{
    type JobOut<T, E> = (Result<T, Quarantined<E>>, Vec<SupervisorEvent>);

    let run = |pool: &ExecConfig| {
        map_ordered_report(pool, items, |idx, item| {
            Ok::<JobOut<T, E>, std::convert::Infallible>(supervise_one(sup, &f, idx, item))
        })
    };

    let (outcome, mut report) = run(cfg);
    let mut degraded = false;
    let mut outcome = match outcome {
        Ok(v) => v,
        // The pool itself failed (a lost slot — supervise_one never
        // returns Err and absorbs panics). Degrade to a serial pass.
        Err(_) => {
            degraded = true;
            let (retried, serial_report) = run(&ExecConfig::new(1));
            report = serial_report;
            retried.unwrap_or_else(|_| {
                (0..items.len())
                    .map(|job| {
                        (
                            Err(Quarantined {
                                job,
                                attempts: 0,
                                error: ExecError::Lost { job },
                            }),
                            Vec::new(),
                        )
                    })
                    .collect()
            })
        }
    };

    let panicking_jobs = outcome
        .iter()
        .filter(|(r, _)| {
            matches!(
                r,
                Err(Quarantined {
                    error: ExecError::Panic { .. },
                    ..
                })
            )
        })
        .count() as u32;
    if sup.degrade_after > 0 && panicking_jobs >= sup.degrade_after {
        degraded = true;
        // Re-run serially only if the first pass actually used threads;
        // the per-job outcomes are pure, so this changes nothing
        // observable beyond exercising the degraded (thread-free) path.
        if report.workers > 1 {
            let (retried, serial_report) = run(&ExecConfig::new(1));
            if let Ok(v) = retried {
                outcome = v;
                report = serial_report;
            }
        }
    }

    let mut results = Vec::with_capacity(outcome.len());
    let mut events = Vec::new();
    for (result, job_events) in outcome {
        results.push(result);
        events.extend(job_events);
    }
    if degraded {
        events.push(SupervisorEvent::Degraded {
            failures: panicking_jobs,
        });
    }

    let mut counters = SupervisorCounters::default();
    for e in &events {
        match e {
            SupervisorEvent::Retry { .. } => {
                counters.retries += 1;
                counters.panics += 1;
            }
            SupervisorEvent::DeadlineExceeded { .. } => counters.deadline_exceeded += 1,
            SupervisorEvent::Quarantined { panicked, .. } => {
                counters.quarantined += 1;
                if *panicked {
                    counters.panics += 1;
                }
            }
            SupervisorEvent::Degraded { .. } => counters.degraded = 1,
        }
    }

    SupervisedBatch {
        results,
        events,
        counters,
        degraded,
        report,
    }
}

/// A queued task: boxed so heterogeneous closures share one queue.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the [`TaskPool`] handle and its workers.
struct TaskShared {
    /// Pending tasks plus the intake/occupancy bookkeeping, all under
    /// one lock so `queue_depth` reads a consistent view.
    queue: Mutex<TaskQueue>,
    /// Signals workers that a task arrived or intake closed.
    available: std::sync::Condvar,
    /// Signals `shutdown` that a task finished.
    drained: std::sync::Condvar,
    /// Tasks whose closure panicked (the worker survives; the panic is
    /// contained and counted).
    panics: AtomicUsize,
}

#[derive(Default)]
struct TaskQueue {
    tasks: std::collections::VecDeque<Task>,
    /// Accepting new submissions. Cleared by `shutdown`.
    open: bool,
    /// Tasks currently executing on a worker.
    running: usize,
}

/// A long-lived worker pool: `workers` threads pull queued closures
/// until [`TaskPool::shutdown`]. Where [`map_ordered`] spins up a
/// scoped pool per batch, this handle is created once and reused across
/// many independent submissions — the execution engine behind
/// `vrl serve`, where requests arrive over time rather than as one
/// batch.
///
/// Tasks are opaque `FnOnce()` closures: ordering guarantees and result
/// plumbing are the submitter's concern (each task owns its own reply
/// channel). A panicking task is contained — the worker survives, the
/// panic is tallied in [`TaskPool::panics`].
pub struct TaskPool {
    shared: std::sync::Arc<TaskShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_count: usize,
}

impl fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskPool")
            .field("workers", &self.worker_count)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl TaskPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> TaskPool {
        let worker_count = workers.max(1);
        let shared = std::sync::Arc::new(TaskShared {
            queue: Mutex::new(TaskQueue {
                tasks: std::collections::VecDeque::new(),
                open: true,
                running: 0,
            }),
            available: std::sync::Condvar::new(),
            drained: std::sync::Condvar::new(),
            panics: AtomicUsize::new(0),
        });
        let handles = (0..worker_count)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vrl-task-{i}"))
                    .spawn(move || task_worker(&shared))
                    .expect("spawn task worker")
            })
            .collect();
        TaskPool {
            shared,
            workers: Mutex::new(handles),
            worker_count,
        }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Enqueues a task. Returns `false` (dropping the task) if the pool
    /// has shut down.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) -> bool {
        let mut queue = self.shared.queue.lock().expect("task queue poisoned");
        if !queue.open {
            return false;
        }
        queue.tasks.push_back(Box::new(task));
        drop(queue);
        self.shared.available.notify_one();
        true
    }

    /// Tasks submitted but not yet finished (queued + running).
    pub fn queue_depth(&self) -> usize {
        let queue = self.shared.queue.lock().expect("task queue poisoned");
        queue.tasks.len() + queue.running
    }

    /// Tasks whose closure panicked (contained; workers survive).
    pub fn panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Worker threads still alive. Equal to [`TaskPool::workers`] for a
    /// healthy pool (panicking tasks are contained, so workers never
    /// die early) and `0` after [`TaskPool::shutdown`] joins them — the
    /// leak check the serve chaos harness asserts between schedules.
    pub fn live_workers(&self) -> usize {
        self.workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .filter(|handle| !handle.is_finished())
            .count()
    }

    /// Closes intake, waits for every queued and running task to
    /// finish, and joins the workers. Idempotent; called by `Drop`.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("task queue poisoned");
            queue.open = false;
            while !queue.tasks.is_empty() || queue.running > 0 {
                queue = self
                    .shared
                    .drained
                    .wait(queue)
                    .expect("task queue poisoned");
            }
        }
        self.shared.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's loop: claim a task, run it under `catch_unwind`, repeat
/// until intake is closed and the queue is empty.
fn task_worker(shared: &TaskShared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("task queue poisoned");
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    queue.running += 1;
                    break task;
                }
                if !queue.open {
                    return;
                }
                queue = shared.available.wait(queue).expect("task queue poisoned");
            }
        };
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        let mut queue = shared.queue.lock().expect("task queue poisoned");
        queue.running -= 1;
        let idle = queue.tasks.is_empty() && queue.running == 0;
        drop(queue);
        if idle {
            shared.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Boom(usize);

    impl fmt::Display for Boom {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "boom {}", self.0)
        }
    }

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 4, 8] {
            let cfg = ExecConfig::new(workers);
            let items: Vec<u64> = (0..100).collect();
            let out = map_ordered(&cfg, &items, |idx, &x| {
                // Stagger finish times so out-of-order completion is real.
                if idx % 7 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok::<_, Boom>(x * 3)
            })
            .expect("no failures");
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let cfg = ExecConfig::new(4);
        let items: Vec<usize> = (0..32).collect();
        let err = map_ordered(&cfg, &items, |_, &x| {
            if x == 9 || x == 21 {
                Err(Boom(x))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::Job {
                job: 9,
                error: Boom(9)
            }
        );
    }

    #[test]
    fn panics_are_caught_and_typed() {
        let cfg = ExecConfig::new(3);
        let items = [1u32, 2, 3, 4];
        let err = map_ordered(&cfg, &items, |_, &x| {
            if x == 3 {
                panic!("job exploded on {x}");
            }
            Ok::<_, Boom>(x)
        })
        .unwrap_err();
        match err {
            ExecError::Panic { job, message } => {
                assert_eq!(job, 2);
                assert!(message.contains("job exploded on 3"), "{message}");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
    }

    #[test]
    fn panic_beats_error_when_earlier() {
        let cfg = ExecConfig::new(2);
        let items: Vec<usize> = (0..8).collect();
        let err = map_ordered(&cfg, &items, |_, &x| match x {
            2 => panic!("early panic"),
            5 => Err(Boom(5)),
            _ => Ok(x),
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::Panic { job: 2, .. }), "{err:?}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let cfg = ExecConfig::new(4);
        let out: Vec<u8> =
            map_ordered(&cfg, &[] as &[u8], |_, &x| Ok::<_, Boom>(x)).expect("empty ok");
        assert!(out.is_empty());
    }

    #[test]
    fn claims_cover_every_job() {
        let cfg = ExecConfig::new(3);
        let items: Vec<usize> = (0..50).collect();
        let out = map_ordered(&cfg, &items, |idx, &x| {
            assert_eq!(idx, x);
            Ok::<_, Boom>(x + 1)
        })
        .expect("no failures");
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn report_tracks_workers_and_busy_time() {
        let cfg = ExecConfig::new(2);
        let items = [10u64, 20, 30, 40];
        let (out, report) = map_ordered_report(&cfg, &items, |_, &x| {
            std::thread::sleep(Duration::from_millis(1));
            Ok::<_, Boom>(x)
        });
        assert_eq!(out.expect("ok"), items.to_vec());
        assert_eq!(report.workers, 2);
        assert_eq!(report.jobs, 4);
        assert_eq!(report.busy.len(), 2);
        assert!(report.wall > Duration::ZERO);
        assert!(report.busy.iter().any(|b| *b > Duration::ZERO));
        let util = report.utilization();
        assert!(util.iter().all(|u| (0.0..=1.0).contains(u)));
        assert!(report.mean_utilization() > 0.0);
        assert_eq!(report.job_wall.len(), 4);
        assert!(report.job_wall.iter().all(|d| *d > Duration::ZERO));
        let (_, slowest) = report.slowest_job().expect("non-empty batch");
        assert!(slowest >= Duration::from_millis(1));
    }

    #[test]
    fn job_wall_is_recorded_on_the_serial_path_too() {
        let cfg = ExecConfig::new(1);
        let items = [5u64, 6, 7];
        let (out, report) = map_ordered_report(&cfg, &items, |_, &x| {
            std::thread::sleep(Duration::from_micros(300));
            Ok::<_, Boom>(x)
        });
        assert_eq!(out.expect("ok"), items.to_vec());
        assert_eq!(report.job_wall.len(), 3);
        assert!(report.job_wall.iter().all(|d| *d > Duration::ZERO));
        assert_eq!(
            PoolReport {
                job_wall: vec![],
                ..report
            }
            .slowest_job(),
            None
        );
    }

    #[test]
    fn worker_count_clamps_to_jobs() {
        let cfg = ExecConfig::new(64);
        let (out, report) = map_ordered_report(&cfg, &[1u8, 2], |_, &x| Ok::<_, Boom>(x));
        assert_eq!(out.expect("ok"), vec![1, 2]);
        assert_eq!(report.workers, 2);
    }

    #[test]
    fn empty_slot_is_a_typed_lost_error() {
        let e: ExecError<Boom> = ExecError::Lost { job: 4 };
        assert!(e.to_string().contains("job 4"));
        assert_eq!(e, ExecError::Lost { job: 4 });
    }

    fn flaky_supervisor() -> Supervisor {
        Supervisor {
            max_retries: 3,
            virtual_deadline: 0,
            backoff_base: 8,
            backoff_seed: 42,
            degrade_after: 0,
        }
    }

    #[test]
    fn supervised_retry_recovers_a_flaky_job() {
        use std::sync::atomic::AtomicU32;
        let failures: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..8).collect();
        let batch = map_supervised(
            &ExecConfig::new(1),
            &flaky_supervisor(),
            &items,
            |idx, &x| {
                // Job 3 panics on its first two attempts, then succeeds.
                if idx == 3 && failures[idx].fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient fault");
                }
                Ok::<_, Boom>(x * 2)
            },
        );
        assert!(batch.results.iter().all(|r| r.is_ok()));
        assert_eq!(batch.counters.retries, 2);
        assert_eq!(batch.counters.quarantined, 0);
        assert!(!batch.degraded);
        let retries: Vec<_> = batch
            .events
            .iter()
            .filter(|e| matches!(e, SupervisorEvent::Retry { job: 3, .. }))
            .collect();
        assert_eq!(retries.len(), 2);
    }

    #[test]
    fn supervised_quarantine_keeps_the_batch_alive() {
        for workers in [1, 4] {
            let items: Vec<usize> = (0..16).collect();
            let batch = map_supervised(
                &ExecConfig::new(workers),
                &flaky_supervisor(),
                &items,
                |idx, &x| {
                    if idx == 5 {
                        panic!("always broken");
                    }
                    if idx == 9 {
                        return Err(Boom(9));
                    }
                    Ok(x + 1)
                },
            );
            assert_eq!(batch.results.len(), 16);
            for (idx, r) in batch.results.iter().enumerate() {
                match idx {
                    5 => {
                        let q = r.as_ref().unwrap_err();
                        assert_eq!(q.attempts, 4, "1 try + 3 retries");
                        assert!(matches!(q.error, ExecError::Panic { job: 5, .. }));
                    }
                    9 => {
                        let q = r.as_ref().unwrap_err();
                        assert_eq!(q.attempts, 1, "typed errors are not retried");
                        assert!(matches!(
                            q.error,
                            ExecError::Job {
                                job: 9,
                                error: Boom(9)
                            }
                        ));
                    }
                    _ => assert_eq!(*r.as_ref().unwrap(), idx + 1),
                }
            }
            assert_eq!(batch.counters.quarantined, 2);
            assert_eq!(batch.counters.retries, 3);
        }
    }

    #[test]
    fn supervised_events_are_bit_identical_across_pool_shapes() {
        let items: Vec<usize> = (0..24).collect();
        let run = |workers| {
            map_supervised(
                &ExecConfig::new(workers),
                &Supervisor::new(),
                &items,
                |idx, &x| {
                    if idx % 7 == 3 {
                        panic!("deterministic failure at {idx}");
                    }
                    Ok::<_, Boom>(x * x)
                },
            )
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            let parallel = run(workers);
            assert_eq!(parallel.events, serial.events, "workers={workers}");
            assert_eq!(parallel.counters, serial.counters);
            assert_eq!(parallel.degraded, serial.degraded);
            for (a, b) in parallel.results.iter().zip(serial.results.iter()) {
                assert_eq!(a.as_ref().ok(), b.as_ref().ok());
                assert_eq!(a.as_ref().err(), b.as_ref().err());
            }
        }
    }

    #[test]
    fn virtual_deadline_quarantines_before_retries_run_out() {
        let sup = Supervisor {
            max_retries: 10,
            virtual_deadline: 3, // one attempt + any backoff blows it
            backoff_base: 8,
            backoff_seed: 1,
            degrade_after: 0,
        };
        let batch = map_supervised(&ExecConfig::new(1), &sup, &[0usize], {
            |_, _| -> Result<u32, Boom> { panic!("never succeeds") }
        });
        assert_eq!(batch.counters.deadline_exceeded, 1);
        assert_eq!(batch.counters.retries, 0);
        let q = batch.results[0].as_ref().unwrap_err();
        assert_eq!(q.attempts, 1);
        assert!(matches!(
            batch.events[0],
            SupervisorEvent::DeadlineExceeded { job: 0, spent: 1 }
        ));
    }

    #[test]
    fn repeated_panics_degrade_to_serial() {
        let sup = Supervisor {
            max_retries: 0,
            virtual_deadline: 0,
            backoff_base: 4,
            backoff_seed: 7,
            degrade_after: 2,
        };
        let items: Vec<usize> = (0..12).collect();
        for workers in [1, 4] {
            let batch = map_supervised(&ExecConfig::new(workers), &sup, &items, |idx, &x| {
                if idx == 2 || idx == 8 {
                    panic!("hard fault");
                }
                Ok::<_, Boom>(x)
            });
            assert!(batch.degraded, "workers={workers}");
            assert_eq!(batch.counters.degraded, 1);
            assert!(matches!(
                batch.events.last(),
                Some(SupervisorEvent::Degraded { failures: 2 })
            ));
            // Healthy jobs still completed.
            assert_eq!(
                batch.results.iter().filter(|r| r.is_ok()).count(),
                items.len() - 2
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_and_positive() {
        let sup = Supervisor::new();
        for job in 0..20 {
            for attempt in 1..6 {
                let b = sup.backoff(job, attempt);
                assert!(b > 0);
                assert_eq!(b, sup.backoff(job, attempt));
            }
        }
        // Different jobs/attempts de-correlate.
        assert_ne!(sup.backoff(1, 1), sup.backoff(2, 1));
        assert_ne!(sup.backoff(1, 1), sup.backoff(1, 2));
    }

    #[test]
    fn task_pool_runs_every_submission_and_drains_on_shutdown() {
        use std::sync::atomic::AtomicU64;
        let pool = TaskPool::new(4);
        let sum = std::sync::Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = std::sync::Arc::clone(&sum);
            assert!(pool.submit(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        assert_eq!(pool.queue_depth(), 0);
        // Intake is closed after shutdown; the task is dropped.
        assert!(!pool.submit(|| {}));
    }

    #[test]
    fn task_pool_contains_panics_and_workers_survive() {
        use std::sync::atomic::AtomicU64;
        let pool = TaskPool::new(2);
        let ran = std::sync::Arc::new(AtomicU64::new(0));
        for i in 0..10u64 {
            let ran = std::sync::Arc::clone(&ran);
            pool.submit(move || {
                if i % 2 == 0 {
                    panic!("task {i} panics");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        assert_eq!(pool.panics(), 5);
    }

    #[test]
    fn task_pool_shutdown_is_idempotent() {
        let pool = TaskPool::new(1);
        pool.submit(|| {});
        pool.shutdown();
        pool.shutdown(); // second call (and the eventual Drop) are no-ops
    }

    #[test]
    fn config_from_env_respects_override() {
        // Serialize env mutation against other tests in this binary.
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(ExecConfig::from_env().workers, 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(ExecConfig::from_env().workers, available_workers());
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(ExecConfig::from_env().workers, available_workers());
        std::env::remove_var(THREADS_ENV);
        assert_eq!(ExecConfig::from_env().workers, available_workers());
    }
}
