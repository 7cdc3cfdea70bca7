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
