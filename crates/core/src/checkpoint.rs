//! Crash-consistent checkpoint/resume for experiment runs.
//!
//! A checkpoint is a self-contained, versioned, checksummed snapshot of
//! one run: a header binding it to the front end, benchmark, policy, and
//! [`ExperimentConfig`] it came from, followed by the engine's full
//! run-state (bank FSMs, timing-wheel refresh queues, RNG streams,
//! policy degradation ladders, statistics, and — for traced runs — the
//! event ring). Files are written with [`vrl_snap::write_atomic`]
//! (temp file + `sync_all` + rename), so a crash mid-write never leaves
//! a torn checkpoint: the previous complete one survives.
//!
//! Checkpointed runs and [`resume`] go through the crate's one span
//! driver, which pauses every engine the same way; at each pause they
//! seal and write a snapshot. A pause inserts *no* state change, so a
//! run resumed from any checkpoint is bit-identical to the
//! uninterrupted run — the property `tests/checkpoint_resume.rs` kills
//! runs at arbitrary cycles to assert.
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

use vrl_dram_sim::controller::{ControllerStats, FrFcfsController};
use vrl_dram_sim::sim::{NullObserver, SimConfig, SimObserver, Simulator};
use vrl_dram_sim::stats::SimStats;
use vrl_obs::{EventStream, Recorder};
use vrl_sched::{SchedConfig, SchedStats, Scheduler};
use vrl_snap::{Decoder, Encoder, SnapError, Snapshot as _};
use vrl_trace::TraceRecord;

use crate::drive::{drive, Pause, SpanEngine};
use crate::error::Error;
use crate::experiment::{
    matrix_jobs, with_policy, Experiment, ExperimentConfig, MatrixCell, PolicyKind,
};

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

/// Which engine a checkpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEndKind {
    /// The single-bank [`Simulator`].
    Sim,
    /// The single-bank [`FrFcfsController`].
    FrFcfs,
    /// The multi-bank [`Scheduler`].
    Sched,
}

impl FrontEndKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FrontEndKind::Sim => "sim",
            FrontEndKind::FrFcfs => "frfcfs",
            FrontEndKind::Sched => "sched",
        }
    }
}

impl vrl_snap::Snapshot for FrontEndKind {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            FrontEndKind::Sim => 0,
            FrontEndKind::FrFcfs => 1,
            FrontEndKind::Sched => 2,
        });
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        match dec.take_u8()? {
            0 => Ok(FrontEndKind::Sim),
            1 => Ok(FrontEndKind::FrFcfs),
            2 => Ok(FrontEndKind::Sched),
            tag => Err(SnapError::Malformed {
                what: format!("unknown front-end tag {tag}"),
            }),
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
#[derive(Debug, Clone, PartialEq)]
struct Header {
    front_end: FrontEndKind,
    benchmark: String,
    policy: PolicyKind,
    config: ExperimentConfig,
    /// FR-FCFS request-queue depth ([`FrontEndKind::FrFcfs`] only).
    queue_depth: usize,
    /// Scheduler shape ([`FrontEndKind::Sched`] only).
    sched: Option<SchedShape>,
    /// Whether the run records a structured event trace (the observer's
    /// ring is then part of the engine state).
    traced: bool,
}

impl vrl_snap::Snapshot for Header {
    fn save(&self, enc: &mut Encoder) {
        self.front_end.save(enc);
        self.benchmark.save(enc);
        self.policy.save(enc);
        self.config.save(enc);
        enc.put_usize(self.queue_depth);
        self.sched.save(enc);
        enc.put_bool(self.traced);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, SnapError> {
        Ok(Header {
            front_end: FrontEndKind::load(dec)?,
            benchmark: String::load(dec)?,
            policy: PolicyKind::load(dec)?,
            config: ExperimentConfig::load(dec)?,
            queue_depth: dec.take_usize()?,
            sched: Option::<SchedShape>::load(dec)?,
            traced: dec.take_bool()?,
        })
    }
}

/// Observers that can snapshot their recording state alongside the
/// engine. [`NullObserver`] has none; a [`Recorder`] checkpoints its
/// event ring so a resumed traced run regenerates the identical stream.
trait ObserverState: SimObserver {
    /// Whether the observer records a trace that is part of the run.
    const RECORDS: bool;
    fn save_obs(&self, enc: &mut Encoder);
    fn restore_obs(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError>;
}

impl ObserverState for NullObserver {
    const RECORDS: bool = false;
    fn save_obs(&self, _enc: &mut Encoder) {}
    fn restore_obs(&mut self, _dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

impl ObserverState for Recorder {
    const RECORDS: bool = true;
    fn save_obs(&self, enc: &mut Encoder) {
        self.save_state(enc);
    }
    fn restore_obs(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        self.restore_state(dec)
    }
}

/// A checkpointed run of a fresh engine.
fn checkpointed<E, I, O>(
    engine: E,
    trace: I,
    header: &Header,
    ckpt: &CheckpointConfig,
    observer: &mut O,
) -> Result<CheckpointOutcome<E::Stats>, Error>
where
    E: SpanEngine,
    I: Iterator<Item = TraceRecord>,
    O: ObserverState,
{
    let cursor = E::Cursor::default();
    checkpointed_from(engine, cursor, 0, trace, header, ckpt, observer)
}

/// Drives a checkpointed run from `cursor`, paused at cycle `paused_at`
/// (`0` for a fresh run). Every pause seals the header, the resume
/// point, the engine state, and the observer state into a snapshot at
/// [`CheckpointConfig::path`]; the run halts after
/// [`CheckpointConfig::halt_after`] snapshots.
fn checkpointed_from<E, I, O>(
    engine: E,
    cursor: E::Cursor,
    paused_at: u64,
    trace: I,
    header: &Header,
    ckpt: &CheckpointConfig,
    observer: &mut O,
) -> Result<CheckpointOutcome<E::Stats>, Error>
where
    E: SpanEngine,
    I: Iterator<Item = TraceRecord>,
    O: ObserverState,
{
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
    drive(engine, cursor, trace, end, first, every, observer, on_pause)
}

impl Experiment {
    /// A header binding a snapshot to this experiment's run of `policy`
    /// on `benchmark`; front-end specifics are left unset.
    fn header(&self, front_end: FrontEndKind, benchmark: &str, policy: PolicyKind) -> Header {
        Header {
            front_end,
            benchmark: benchmark.to_owned(),
            policy,
            config: *self.config(),
            queue_depth: 0,
            sched: None,
            traced: false,
        }
    }

    /// [`Experiment::run_policy`] with crash-consistent checkpoints: the
    /// single-bank simulator pauses every
    /// [`CheckpointConfig::every_cycles`] and atomically snapshots its
    /// full state to [`CheckpointConfig::path`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] for an unknown benchmark and
    /// [`Error::Snapshot`] for a zero cadence or a failed write.
    pub fn run_policy_checkpointed(
        &self,
        kind: PolicyKind,
        benchmark: &str,
        ckpt: &CheckpointConfig,
    ) -> Result<CheckpointOutcome<SimStats>, Error> {
        ckpt.validated()?;
        let header = self.header(FrontEndKind::Sim, benchmark, kind);
        let trace = self.trace(benchmark)?;
        with_policy!(kind, self.plan(), |p| {
            let sim = Simulator::new(SimConfig::with_rows(self.config().rows), p);
            checkpointed(sim, trace, &header, ckpt, &mut NullObserver)
        })
    }

    /// [`Experiment::run_frfcfs`] with crash-consistent checkpoints.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run_policy_checkpointed`]; additionally
    /// [`Error::Sim`] for an invalid queue depth.
    pub fn run_frfcfs_checkpointed(
        &self,
        kind: PolicyKind,
        benchmark: &str,
        queue_depth: usize,
        ckpt: &CheckpointConfig,
    ) -> Result<CheckpointOutcome<ControllerStats>, Error> {
        ckpt.validated()?;
        let header = Header {
            queue_depth,
            ..self.header(FrontEndKind::FrFcfs, benchmark, kind)
        };
        let trace = self.trace(benchmark)?;
        with_policy!(kind, self.plan(), |p| {
            let config = SimConfig::with_rows(self.config().rows);
            let ctl = FrFcfsController::new(config, p, queue_depth)?;
            checkpointed(ctl, trace, &header, ckpt, &mut NullObserver)
        })
    }

    /// [`Experiment::run_scheduled`] with crash-consistent checkpoints.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run_policy_checkpointed`]; additionally
    /// [`Error::Sim`] for a scheduler configuration failure.
    pub fn run_scheduled_checkpointed(
        &self,
        kind: PolicyKind,
        benchmark: &str,
        sched: SchedConfig,
        ckpt: &CheckpointConfig,
    ) -> Result<CheckpointOutcome<SchedStats>, Error> {
        self.sched_checkpointed(kind, benchmark, sched, ckpt, &mut NullObserver)
    }

    /// [`Experiment::run_scheduled_traced`] with crash-consistent
    /// checkpoints: the recorder's event ring is part of the snapshot,
    /// so a resumed traced run produces the identical event stream.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run_scheduled_checkpointed`].
    pub fn run_scheduled_traced_checkpointed(
        &self,
        kind: PolicyKind,
        benchmark: &str,
        sched: SchedConfig,
        ckpt: &CheckpointConfig,
    ) -> Result<CheckpointOutcome<(SchedStats, EventStream)>, Error> {
        let mut recorder = Recorder::new(benchmark, kind.name(), sched.rows_per_bank());
        let outcome = self.sched_checkpointed(kind, benchmark, sched, ckpt, &mut recorder)?;
        Ok(outcome.map(|stats| (stats, recorder.finish())))
    }

    /// The scheduler checkpointed run, traced when `observer` records.
    fn sched_checkpointed<O: ObserverState>(
        &self,
        kind: PolicyKind,
        benchmark: &str,
        sched: SchedConfig,
        ckpt: &CheckpointConfig,
        observer: &mut O,
    ) -> Result<CheckpointOutcome<SchedStats>, Error> {
        ckpt.validated()?;
        let header = Header {
            sched: Some(SchedShape::of(&sched)),
            traced: O::RECORDS,
            ..self.header(FrontEndKind::Sched, benchmark, kind)
        };
        let trace = self.trace(benchmark)?;
        with_policy!(kind, self.plan(), |p| {
            let engine = Scheduler::new(sched, p)?;
            checkpointed(engine, trace, &header, ckpt, observer)
        })
    }
}

/// The engine-specific statistics a resumed run produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumedStats {
    /// Single-bank simulator statistics.
    Sim(SimStats),
    /// FR-FCFS controller statistics.
    FrFcfs(ControllerStats),
    /// Multi-bank scheduler statistics.
    Sched(SchedStats),
}

/// The outcome of [`resume`].
#[derive(Debug)]
pub struct ResumeReport {
    /// Which engine the snapshot came from.
    pub front_end: FrontEndKind,
    /// The benchmark the run simulates.
    pub benchmark: String,
    /// The refresh policy under test.
    pub policy: PolicyKind,
    /// How the continued run ended.
    pub outcome: CheckpointOutcome<ResumedStats>,
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
    let stop = dec.take_u64()?;
    let consumed = dec.take_u64()?;

    let experiment = Experiment::new(header.config);
    let trace = experiment.trace(&header.benchmark)?;
    // Continue checkpointing on the caller's cadence, or run straight
    // through (a cadence past the horizon never pauses again).
    let fallback = CheckpointConfig::new(path, u64::MAX);
    let ckpt = ckpt.unwrap_or(&fallback);
    ckpt.validated()?;
    let sched = header.sched.map(SchedShape::to_config).transpose()?;
    let leg = Leg {
        header: &header,
        dec,
        consumed,
        paused_at: stop,
        ckpt,
    };
    let rows = SimConfig::with_rows(header.config.rows);
    let (outcome, events) = with_policy!(header.policy, experiment.plan(), |p| {
        match header.front_end {
            FrontEndKind::Sim => leg.run(Simulator::new(rows, p), trace, ResumedStats::Sim),
            FrontEndKind::FrFcfs => {
                let ctl = FrFcfsController::new(rows, p, header.queue_depth)?;
                leg.run(ctl, trace, ResumedStats::FrFcfs)
            }
            FrontEndKind::Sched => {
                let config = sched.ok_or(Error::Snapshot(SnapError::Malformed {
                    what: "scheduler snapshot lacks its geometry".to_owned(),
                }))?;
                leg.run(Scheduler::new(config, p)?, trace, ResumedStats::Sched)
            }
        }
    })?;
    Ok(ResumeReport {
        front_end: header.front_end,
        benchmark: header.benchmark,
        policy: header.policy,
        outcome,
        events,
    })
}

/// The rest of a snapshot once its header and resume point are read.
struct Leg<'a> {
    header: &'a Header,
    dec: Decoder<'a>,
    consumed: u64,
    paused_at: u64,
    ckpt: &'a CheckpointConfig,
}

impl Leg<'_> {
    /// Restores `engine` (and, for traced runs, the event recorder) from
    /// the snapshot and drives it on — the one resume path every front
    /// end shares.
    fn run<E, I>(
        mut self,
        mut engine: E,
        trace: I,
        wrap: fn(E::Stats) -> ResumedStats,
    ) -> Result<(CheckpointOutcome<ResumedStats>, Option<EventStream>), Error>
    where
        E: SpanEngine,
        I: Iterator<Item = TraceRecord>,
    {
        let cursor = engine.restore_run(self.consumed, &mut self.dec)?;
        let (header, ckpt, at) = (self.header, self.ckpt, self.paused_at);
        if !header.traced {
            let outcome =
                checkpointed_from(engine, cursor, at, trace, header, ckpt, &mut NullObserver)?;
            return Ok((outcome.map(wrap), None));
        }
        let rows_per_bank = header.sched.map_or(u32::MAX, |s| s.rows_per_bank);
        let mut recorder = Recorder::new(&header.benchmark, header.policy.name(), rows_per_bank);
        recorder.restore_obs(&mut self.dec)?;
        let outcome = checkpointed_from(engine, cursor, at, trace, header, ckpt, &mut recorder)?;
        let events = matches!(outcome, CheckpointOutcome::Completed(_)).then(|| recorder.finish());
        Ok((outcome.map(wrap), events))
    }
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
