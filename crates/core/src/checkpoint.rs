//! Crash-consistent checkpoint/resume for experiment runs.
//!
//! A checkpoint is a self-contained, versioned, checksummed snapshot of
//! one run: a header binding it to the [`Engine`], benchmark, policy,
//! and [`ExperimentConfig`] it came from, followed by the engine's full
//! run-state (bank FSMs, timing-wheel refresh queues, RNG streams,
//! policy degradation ladders, statistics, and — for traced runs — the
//! event ring). Files are written with [`vrl_snap::write_atomic`]
//! (temp file + `sync_all` + rename), so a crash mid-write never leaves
//! a torn checkpoint: the previous complete one survives.
//!
//! [`Experiment::run_checkpointed`] and [`resume`] build their engine
//! with the same constructor as [`Experiment::run`] and drive it through
//! the crate's one span driver, which pauses every engine the same way;
//! at each pause they seal and write a snapshot. A pause inserts *no*
//! state change, so a run resumed from any checkpoint is bit-identical
//! to the uninterrupted run — the property `tests/checkpoint_resume.rs`
//! kills runs at arbitrary cycles to assert. The single-bank simulator,
//! the FR-FCFS controller and the whole scheduler checkpoint; a single
//! channel shard and the fault-injected engine do not (see DESIGN.md
//! §12).
//!
//! Resume is **flag-free**: [`resume`] reads everything it needs from
//! the header (the trace is regenerated deterministically from the
//! embedded seed and skipped to the consumption point), so
//! `vrl <cmd> --resume FILE` needs no other arguments. A snapshot is
//! only readable by the [`vrl_snap::FORMAT_VERSION`] that wrote it, and
//! the header config must reconstruct the identical experiment — both
//! invariants surface as typed errors, never garbage state.
//!
//! Scheduler checkpoints record the rank geometry and scheduling knobs
//! but assume the paper-default timing parameters (the only timing the
//! harness constructs); resuming a run made with hand-built custom
//! timings is out of scope (see DESIGN.md §12).

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use vrl_dram_sim::sim::{NullObserver, SimObserver};
use vrl_dram_sim::stats::SimStats;
use vrl_obs::{EventStream, Recorder};
use vrl_sched::SchedConfig;
use vrl_snap::{Decoder, Encoder, SnapError, Snapshot as _};
use vrl_trace::TraceRecord;

use crate::drive::{drive, Pause, SpanEngine};
use crate::engine::{Engine, EngineRun, Outcome};
use crate::error::Error;
use crate::experiment::{matrix_jobs, Experiment, ExperimentConfig, MatrixCell, PolicyKind};

/// Checkpoint cadence and destination for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Where snapshots are written (each overwrites the last,
    /// atomically).
    pub path: PathBuf,
    /// Pause and snapshot roughly every this many simulated cycles.
    pub every_cycles: u64,
    /// Stop the run after this many snapshots (`None` = run to
    /// completion). The kill-and-resume tests and the CI smoke job use
    /// this to simulate a crash at a checkpoint boundary.
    pub halt_after: Option<u32>,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every_cycles` simulated cycles.
    pub fn new(path: impl Into<PathBuf>, every_cycles: u64) -> Self {
        CheckpointConfig {
            path: path.into(),
            every_cycles,
            halt_after: None,
        }
    }

    /// Halt the run after `count` snapshots (simulating a crash there).
    #[must_use]
    pub fn with_halt_after(mut self, count: u32) -> Self {
        self.halt_after = Some(count);
        self
    }

    fn validated(&self) -> Result<(), Error> {
        if self.every_cycles == 0 {
            return Err(Error::Snapshot(SnapError::Malformed {
                what: "checkpoint cadence must be positive".to_owned(),
            }));
        }
        Ok(())
    }
}

/// How a checkpointed run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointOutcome<S> {
    /// The run finished; the final statistics.
    Completed(S),
    /// The run halted at a checkpoint boundary
    /// ([`CheckpointConfig::halt_after`]); resume from the snapshot to
    /// continue.
    Halted {
        /// Snapshots written before halting.
        checkpoints: u32,
    },
}

impl<S> CheckpointOutcome<S> {
    /// The final statistics, if the run completed.
    pub fn completed(self) -> Option<S> {
        match self {
            CheckpointOutcome::Completed(s) => Some(s),
            CheckpointOutcome::Halted { .. } => None,
        }
    }

    fn map<T>(self, f: impl FnOnce(S) -> T) -> CheckpointOutcome<T> {
        match self {
            CheckpointOutcome::Completed(s) => CheckpointOutcome::Completed(f(s)),
            CheckpointOutcome::Halted { checkpoints } => CheckpointOutcome::Halted { checkpoints },
        }
    }
}

impl vrl_snap::Snapshot for PolicyKind {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            PolicyKind::Auto => 0,
            PolicyKind::Raidr => 1,
            PolicyKind::Vrl => 2,
            PolicyKind::VrlAccess => 3,
        });
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        match dec.take_u8()? {
            0 => Ok(PolicyKind::Auto),
            1 => Ok(PolicyKind::Raidr),
            2 => Ok(PolicyKind::Vrl),
            3 => Ok(PolicyKind::VrlAccess),
            tag => Err(SnapError::Malformed {
                what: format!("unknown policy tag {tag}"),
            }),
        }
    }
}

impl vrl_snap::Snapshot for ExperimentConfig {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(self.rows);
        enc.put_u32(self.cells_per_row);
        enc.put_u64(self.seed);
        enc.put_f64(self.duration_ms);
        enc.put_u32(self.nbits);
        enc.put_f64(self.guard_band);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(ExperimentConfig {
            rows: dec.take_u32()?,
            cells_per_row: dec.take_u32()?,
            seed: dec.take_u64()?,
            duration_ms: dec.take_f64()?,
            nbits: dec.take_u32()?,
            guard_band: dec.take_f64()?,
        })
    }
}

/// The scheduler knobs a checkpoint must reproduce (geometry plus the
/// refresh-elasticity configuration; timing is paper-default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedShape {
    channels: u32,
    ranks: u32,
    banks_per_rank: u32,
    rows_per_bank: u32,
    queue_depth: usize,
    slack: u64,
    parallel_refresh: bool,
    staggered: bool,
}

impl SchedShape {
    fn of(config: &SchedConfig) -> Self {
        SchedShape {
            channels: config.channels(),
            ranks: config.ranks(),
            banks_per_rank: config.banks_per_rank(),
            rows_per_bank: config.rows_per_bank(),
            queue_depth: config.queue_depth,
            slack: config.slack,
            parallel_refresh: config.parallel_refresh,
            staggered: config.staggered,
        }
    }

    fn to_config(self) -> Result<SchedConfig, Error> {
        let mut config = SchedConfig::with_dimm_geometry(
            self.channels,
            self.ranks,
            self.banks_per_rank,
            self.rows_per_bank,
        )?
        .with_queue_depth(self.queue_depth)
        .with_slack(self.slack)
        .with_parallelism(self.parallel_refresh);
        if !self.staggered {
            config = config.with_burst_refresh();
        }
        Ok(config)
    }
}

impl vrl_snap::Snapshot for SchedShape {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(self.channels);
        enc.put_u32(self.ranks);
        enc.put_u32(self.banks_per_rank);
        enc.put_u32(self.rows_per_bank);
        enc.put_usize(self.queue_depth);
        enc.put_u64(self.slack);
        enc.put_bool(self.parallel_refresh);
        enc.put_bool(self.staggered);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(SchedShape {
            channels: dec.take_u32()?,
            ranks: dec.take_u32()?,
            banks_per_rank: dec.take_u32()?,
            rows_per_bank: dec.take_u32()?,
            queue_depth: dec.take_usize()?,
            slack: dec.take_u64()?,
            parallel_refresh: dec.take_bool()?,
            staggered: dec.take_bool()?,
        })
    }
}

/// Everything a snapshot needs to reconstruct its run from scratch.
///
/// On disk: the engine tag (0 simulator, 1 FR-FCFS, 2 scheduler), the
/// benchmark, policy and config, the FR-FCFS queue depth (0 for other
/// engines), the scheduler shape (scheduler only) and the traced flag.
#[derive(Debug, Clone, PartialEq)]
struct Header {
    /// [`Engine::Sim`], [`Engine::FrFcfs`] or [`Engine::Sched`].
    engine: Engine,
    benchmark: String,
    policy: PolicyKind,
    config: ExperimentConfig,
    /// Whether the run records a structured event trace (the observer's
    /// ring is then part of the engine state).
    traced: bool,
}

impl Header {
    fn save(&self, enc: &mut Encoder) {
        let (tag, queue_depth, sched) = match self.engine {
            Engine::Sim => (0, 0, None),
            Engine::FrFcfs { queue_depth } => (1, queue_depth, None),
            Engine::Sched(config) => (2, 0, Some(SchedShape::of(&config))),
            _ => unreachable!("run_checkpointed admits only checkpointable engines"),
        };
        enc.put_u8(tag);
        self.benchmark.save(enc);
        self.policy.save(enc);
        self.config.save(enc);
        enc.put_usize(queue_depth);
        sched.save(enc);
        enc.put_bool(self.traced);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, Error> {
        let tag = dec.take_u8()?;
        if tag > 2 {
            return Err(Error::Snapshot(SnapError::Malformed {
                what: format!("unknown front-end tag {tag}"),
            }));
        }
        let benchmark = String::load(dec)?;
        let policy = PolicyKind::load(dec)?;
        let config = ExperimentConfig::load(dec)?;
        let queue_depth = dec.take_usize()?;
        let sched = Option::<SchedShape>::load(dec)?;
        let traced = dec.take_bool()?;
        let engine = match (tag, sched) {
            (0, _) => Engine::Sim,
            (1, _) => Engine::FrFcfs { queue_depth },
            (_, Some(shape)) => Engine::Sched(shape.to_config()?),
            (_, None) => {
                return Err(Error::Snapshot(SnapError::Malformed {
                    what: "scheduler snapshot lacks its geometry".to_owned(),
                }))
            }
        };
        Ok(Header {
            engine,
            benchmark,
            policy,
            config,
            traced,
        })
    }
}

/// Observers that can snapshot their recording state alongside the
/// engine. [`NullObserver`] has none; a [`Recorder`] checkpoints its
/// event ring so a resumed traced run regenerates the identical stream.
trait ObserverState: SimObserver {
    fn save_obs(&self, enc: &mut Encoder);
    fn restore_obs(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError>;
}

impl ObserverState for NullObserver {
    fn save_obs(&self, _enc: &mut Encoder) {}
    fn restore_obs(&mut self, _dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

impl ObserverState for Recorder {
    fn save_obs(&self, enc: &mut Encoder) {
        self.save_state(enc);
    }
    fn restore_obs(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        self.restore_state(dec)
    }
}

/// Where a resumed run picks up: the snapshot past its header.
struct Restore<'a> {
    dec: Decoder<'a>,
    consumed: u64,
    paused_at: u64,
}

/// A checkpointed leg of a run: a fresh engine, or one restored from a
/// snapshot, driven on with a snapshot written at every pause.
struct Leg<'a, I, O> {
    header: &'a Header,
    ckpt: &'a CheckpointConfig,
    trace: I,
    observer: &'a mut O,
    restore: Option<Restore<'a>>,
}

impl<I, O> EngineRun for Leg<'_, I, O>
where
    I: Iterator<Item = TraceRecord>,
    O: ObserverState,
{
    type Output = CheckpointOutcome<Outcome>;

    /// Restores the engine (and the observer) if resuming, then drives
    /// it from the pause point. Every pause seals the header, the resume
    /// point, the engine state, and the observer state into a snapshot
    /// at [`CheckpointConfig::path`]; the run halts after
    /// [`CheckpointConfig::halt_after`] snapshots.
    fn drive<E: SpanEngine>(
        self,
        mut engine: E,
        wrap: fn(E::Stats) -> Outcome,
    ) -> Result<Self::Output, Error> {
        let Leg {
            header,
            ckpt,
            trace,
            observer,
            restore,
        } = self;
        let (cursor, paused_at) = match restore {
            None => (E::Cursor::default(), 0),
            Some(mut at) => {
                let cursor = engine.restore_run(at.consumed, &mut at.dec)?;
                observer.restore_obs(&mut at.dec)?;
                (cursor, at.paused_at)
            }
        };
        let end = header.config.end_cycle();
        let every = ckpt.every_cycles;
        let first = paused_at.saturating_add(every);
        let on_pause = |pause: Pause<'_, E, O>| {
            let mut enc = Encoder::new();
            header.save(&mut enc);
            enc.put_u64(pause.stop);
            enc.put_u64(E::consumed(pause.cursor));
            pause.engine.save_run(pause.cursor, &mut enc);
            pause.observer.save_obs(&mut enc);
            vrl_snap::write_atomic(&ckpt.path, &vrl_snap::seal(&enc.into_bytes()))?;
            Ok(if ckpt.halt_after.is_some_and(|k| pause.index >= k) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        };
        let outcome = drive(engine, cursor, trace, end, first, every, observer, on_pause)?;
        Ok(outcome.map(wrap))
    }
}

/// Builds the header's engine in `experiment` and drives a checkpointed
/// leg of it — with an event recorder when the run is traced, whose
/// stream comes back once the run completes.
fn checkpointed<I>(
    experiment: &Experiment,
    header: &Header,
    ckpt: &CheckpointConfig,
    trace: I,
    restore: Option<Restore<'_>>,
) -> Result<(CheckpointOutcome<Outcome>, Option<EventStream>), Error>
where
    I: Iterator<Item = TraceRecord>,
{
    let (engine, policy) = (&header.engine, header.policy);
    if !header.traced {
        let observer = &mut NullObserver;
        let leg = Leg {
            header,
            ckpt,
            trace,
            observer,
            restore,
        };
        return Ok((experiment.build(engine, policy, leg)?, None));
    }
    let mut recorder = engine.recorder(&header.benchmark, policy);
    let leg = Leg {
        header,
        ckpt,
        trace,
        observer: &mut recorder,
        restore,
    };
    let outcome = experiment.build(engine, policy, leg)?;
    let events = matches!(outcome, CheckpointOutcome::Completed(_)).then(|| recorder.finish());
    Ok((outcome, events))
}

impl Experiment {
    /// Runs `policy` on `engine` over the benchmark's trace with
    /// crash-consistent checkpoints: the engine pauses every
    /// [`CheckpointConfig::every_cycles`] and atomically snapshots its
    /// full state to [`CheckpointConfig::path`]. A `traced` run records
    /// a structured event trace whose ring is part of the snapshot; its
    /// stream comes back when the run completes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotCheckpointable`] for an engine other than
    /// [`Engine::Sim`], [`Engine::FrFcfs`] and [`Engine::Sched`] (the
    /// others have no checkpoint seam); [`Error::Snapshot`] for a zero
    /// cadence or a failed write; [`Error::UnknownWorkload`] for an
    /// unknown benchmark; and [`Error::Sim`] for an engine configuration
    /// failure.
    pub fn run_checkpointed(
        &self,
        engine: &Engine,
        policy: PolicyKind,
        benchmark: &str,
        ckpt: &CheckpointConfig,
        traced: bool,
    ) -> Result<(CheckpointOutcome<Outcome>, Option<EventStream>), Error> {
        ckpt.validated()?;
        if !matches!(
            engine,
            Engine::Sim | Engine::FrFcfs { .. } | Engine::Sched(_)
        ) {
            return Err(Error::NotCheckpointable {
                engine: engine.name(),
            });
        }
        let header = Header {
            engine: *engine,
            benchmark: benchmark.to_owned(),
            policy,
            config: *self.config(),
            traced,
        };
        let trace = self.trace(benchmark)?;
        checkpointed(self, &header, ckpt, trace, None)
    }
}

/// The outcome of [`resume`].
#[derive(Debug)]
pub struct ResumeReport {
    /// The engine the snapshot came from.
    pub engine: Engine,
    /// The benchmark the run simulates.
    pub benchmark: String,
    /// The refresh policy under test.
    pub policy: PolicyKind,
    /// How the continued run ended.
    pub outcome: CheckpointOutcome<Outcome>,
    /// The recorded event stream, for traced snapshots that ran to
    /// completion.
    pub events: Option<EventStream>,
}

/// Resumes a checkpointed run from `path` and drives it to completion
/// (or to the next halt, if `ckpt` keeps checkpointing with
/// [`CheckpointConfig::halt_after`] set).
///
/// The snapshot is self-contained: the experiment, trace, and engine are
/// reconstructed from the header, the deterministic trace is skipped to
/// the consumption point, and the engine state is restored — the
/// continued run is bit-identical to one that never paused. Pass `ckpt`
/// to keep writing checkpoints on the continued run (the cadence
/// restarts from the snapshot's pause point), or `None` to run straight
/// through.
///
/// # Errors
///
/// Returns [`Error::Snapshot`] for an unreadable, corrupt,
/// version-mismatched, or differently-shaped snapshot.
pub fn resume(path: &Path, ckpt: Option<&CheckpointConfig>) -> Result<ResumeReport, Error> {
    let bytes = vrl_snap::read_file(path)?;
    let payload = vrl_snap::open(&bytes)?;
    let mut dec = Decoder::new(payload);
    let header = Header::load(&mut dec)?;
    let paused_at = dec.take_u64()?;
    let consumed = dec.take_u64()?;

    let experiment = Experiment::new(header.config);
    let trace = experiment.trace(&header.benchmark)?;
    // Continue checkpointing on the caller's cadence, or run straight
    // through (a cadence past the horizon never pauses again).
    let fallback = CheckpointConfig::new(path, u64::MAX);
    let ckpt = ckpt.unwrap_or(&fallback);
    ckpt.validated()?;
    let restore = Restore {
        dec,
        consumed,
        paused_at,
    };
    let (outcome, events) = checkpointed(&experiment, &header, ckpt, trace, Some(restore))?;
    Ok(ResumeReport {
        engine: header.engine,
        benchmark: header.benchmark,
        policy: header.policy,
        outcome,
        events,
    })
}

/// A matrix-level manifest for [`Experiment::compare_all`]-style sweeps:
/// completed (benchmark × policy) cells are persisted atomically after
/// every benchmark group, so an interrupted sweep resumes by re-running
/// only the missing cells. The coarse granularity deliberately sidesteps
/// engine-state capture for guarded/faulted runs (see DESIGN.md §12).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixManifest {
    config: ExperimentConfig,
    policies: Vec<PolicyKind>,
    cells: Vec<MatrixCell>,
}

impl vrl_snap::Snapshot for MatrixCell {
    fn save(&self, enc: &mut Encoder) {
        self.benchmark.save(enc);
        self.policy.save(enc);
        self.stats.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(MatrixCell {
            benchmark: String::load(dec)?,
            policy: PolicyKind::load(dec)?,
            stats: SimStats::load(dec)?,
        })
    }
}

impl vrl_snap::Snapshot for MatrixManifest {
    fn save(&self, enc: &mut Encoder) {
        self.config.save(enc);
        self.policies.save(enc);
        self.cells.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(MatrixManifest {
            config: ExperimentConfig::load(dec)?,
            policies: Vec::<PolicyKind>::load(dec)?,
            cells: Vec::<MatrixCell>::load(dec)?,
        })
    }
}

impl MatrixManifest {
    /// Completed cells, in completion order (benchmark-major).
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }
}

impl Experiment {
    /// Runs the (benchmark × policy) matrix with a crash-consistent
    /// manifest at `path`: after each benchmark's group of cells the
    /// manifest is atomically rewritten, and a re-run against an
    /// existing manifest re-simulates only the missing cells. Returns
    /// the full matrix in benchmark-major order, bit-identical to
    /// [`Experiment::run_matrix_with`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResumeMismatch`] if the manifest belongs to a
    /// different configuration or policy list, [`Error::Snapshot`] for
    /// a corrupt manifest, and propagates simulation errors.
    pub fn run_matrix_manifested(
        &self,
        cfg: &vrl_exec::ExecConfig,
        policies: &[PolicyKind],
        path: &Path,
    ) -> Result<Vec<MatrixCell>, Error> {
        let mut manifest = if path.exists() {
            let bytes = vrl_snap::read_file(path)?;
            let payload = vrl_snap::open(&bytes)?;
            let manifest = MatrixManifest::load(&mut Decoder::new(payload))?;
            if manifest.config != *self.config() {
                return Err(Error::ResumeMismatch {
                    what: "manifest experiment configuration differs".to_owned(),
                });
            }
            if manifest.policies != policies {
                return Err(Error::ResumeMismatch {
                    what: "manifest policy list differs".to_owned(),
                });
            }
            manifest
        } else {
            MatrixManifest {
                config: *self.config(),
                policies: policies.to_vec(),
                cells: Vec::new(),
            }
        };
        let done: std::collections::HashSet<(String, PolicyKind)> = manifest
            .cells
            .iter()
            .map(|c| (c.benchmark.clone(), c.policy))
            .collect();
        for benchmark in vrl_trace::WorkloadSpec::BENCHMARKS {
            let missing: Vec<PolicyKind> = policies
                .iter()
                .copied()
                .filter(|&k| !done.contains(&(benchmark.to_owned(), k)))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let jobs: Vec<(&str, PolicyKind)> = missing.iter().map(|&k| (benchmark, k)).collect();
            let cells = vrl_exec::map_ordered(cfg, &jobs, |_, &(benchmark, kind)| {
                self.matrix_cell(benchmark, kind)
            })
            .map_err(Error::from)?;
            manifest.cells.extend(cells);
            let mut enc = Encoder::new();
            manifest.save(&mut enc);
            let sealed = vrl_snap::seal(&enc.into_bytes());
            vrl_snap::write_atomic(path, &sealed)?;
        }
        // Return benchmark-major regardless of completion order.
        matrix_jobs(policies)
            .map(|(benchmark, kind)| {
                let cell = manifest
                    .cells
                    .iter()
                    .find(|c| c.benchmark == benchmark && c.policy == kind);
                cell.cloned().ok_or_else(|| Error::ResumeMismatch {
                    what: format!("manifest is missing {benchmark}/{}", kind.name()),
                })
            })
            .collect()
    }
}
