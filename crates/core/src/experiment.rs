//! The end-to-end experiment harness (the machinery behind Figure 4).
//!
//! The harness owns one set of expensive artifacts — the analytical
//! model, the profiled bank, the refresh plan, the power model — shared
//! via `Arc` so that cloning an [`Experiment`] (and fanning simulation
//! jobs across the [`vrl_exec`] worker pool) never recomputes or copies
//! them. [`Experiment::run_matrix`] is the one sweep runner: it crosses
//! every benchmark with a policy list on any [`Engine`], one
//! [`Experiment::run`] per pool job, and returns the cells in job order,
//! so a sweep is bit-identical on any pool shape.
//! [`Experiment::compare_all`] is the Figure 4 matrix on top of it.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use vrl_exec::{map_ordered_report, ExecConfig, PoolReport};

use vrl_circuit::model::AnalyticalModel;
use vrl_circuit::tech::Technology;
use vrl_dram_sim::fault::{FaultConfig, FaultStats};
use vrl_dram_sim::guard::{GuardConfig, GuardStats};
use vrl_dram_sim::integrity::IntegrityChecker;
use vrl_dram_sim::sim::{NullObserver, SimObserver};
use vrl_dram_sim::{SimStats, TimingParams};
use vrl_obs::{MetricsRegistry, MetricsSnapshot};
use vrl_power::model::{PowerBreakdown, PowerModel};
use vrl_retention::distribution::RetentionDistribution;
use vrl_retention::profile::BankProfile;
use vrl_sched::{SchedConfig, SchedStats};
use vrl_trace::{TraceRecord, Workload, WorkloadSpec};

use crate::engine::{Engine, Outcome};
use crate::error::Error;
use crate::physics::ModelPhysics;
use crate::plan::RefreshPlan;

/// Which refresh policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Fixed 64 ms auto-refresh.
    Auto,
    /// RAIDR binned refresh.
    Raidr,
    /// VRL (Algorithm 1).
    Vrl,
    /// VRL-Access (Algorithm 1 + activation resets).
    VrlAccess,
}

impl PolicyKind {
    /// All policies in evaluation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Auto,
        PolicyKind::Raidr,
        PolicyKind::Vrl,
        PolicyKind::VrlAccess,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Auto => "auto",
            PolicyKind::Raidr => "raidr",
            PolicyKind::Vrl => "vrl",
            PolicyKind::VrlAccess => "vrl-access",
        }
    }
}

/// Binds `$p` to the concrete policy `$kind` names — built from `$plan`
/// — and evaluates `$body`, so generic engine code monomorphizes per
/// policy. The one place a [`PolicyKind`] becomes a policy.
macro_rules! with_policy {
    ($kind:expr, $plan:expr, |$p:ident| $body:expr) => {
        match $kind {
            $crate::experiment::PolicyKind::Auto => {
                let $p = vrl_dram_sim::AutoRefresh::new(64.0);
                $body
            }
            $crate::experiment::PolicyKind::Raidr => {
                let $p = $plan.raidr();
                $body
            }
            $crate::experiment::PolicyKind::Vrl => {
                let $p = $plan.vrl();
                $body
            }
            $crate::experiment::PolicyKind::VrlAccess => {
                let $p = $plan.vrl_access();
                $body
            }
        }
    };
}
pub(crate) use with_policy;

/// Experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Rows in the bank (paper: 8192).
    pub rows: u32,
    /// Cells per row (paper: 32).
    pub cells_per_row: u32,
    /// Profile / trace seed.
    pub seed: u64,
    /// Simulated wall time per run (ms).
    pub duration_ms: f64,
    /// MPRSF counter width (paper evaluates 2).
    pub nbits: u32,
    /// MPRSF guard band (charge fraction).
    pub guard_band: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            rows: 8192,
            cells_per_row: 32,
            seed: 42,
            duration_ms: 512.0,
            nbits: 2,
            guard_band: 0.0,
        }
    }
}

/// One Figure 4 comparison row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub benchmark: String,
    /// RAIDR refresh-busy cycles.
    pub raidr_cycles: u64,
    /// VRL refresh-busy cycles.
    pub vrl_cycles: u64,
    /// VRL-Access refresh-busy cycles.
    pub vrl_access_cycles: u64,
    /// VRL normalized to RAIDR.
    pub vrl_normalized: f64,
    /// VRL-Access normalized to RAIDR.
    pub vrl_access_normalized: f64,
    /// RAIDR refresh power (mW).
    pub raidr_refresh_mw: f64,
    /// VRL-Access refresh power (mW).
    pub vrl_access_refresh_mw: f64,
}

/// The end-to-end experiment: model + profile + plan + simulator glue.
///
/// Cloning is cheap: the model, profile, plan, and power model are
/// `Arc`-shared, never recomputed.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
    model: Arc<AnalyticalModel>,
    profile: Arc<BankProfile>,
    plan: Arc<RefreshPlan>,
    power: Arc<PowerModel>,
}

impl ExperimentConfig {
    /// Generates this configuration's retention profile — the expensive
    /// per-`(rows, cells_per_row, seed)` artifact. [`Experiment::new`]
    /// calls this internally; `vrl-serve`'s artifact cache calls it once
    /// per distinct key and shares the result across requests.
    pub fn build_profile(&self) -> BankProfile {
        BankProfile::generate(
            &RetentionDistribution::liu_et_al(),
            self.rows as usize,
            self.cells_per_row,
            self.seed,
        )
    }

    /// Builds the refresh plan (binning + MPRSF memo tables) for a
    /// profile generated by [`ExperimentConfig::build_profile`]. The
    /// second expensive artifact, keyed by the profile plus
    /// `(nbits, guard_band)`.
    pub fn build_plan(&self, profile: &BankProfile) -> RefreshPlan {
        let model = AnalyticalModel::new(Technology::n90());
        RefreshPlan::build(&model, profile, self.nbits, self.guard_band)
    }

    /// The cycle a run of this configuration ends at (paper timing, the
    /// only timing the harness builds).
    pub(crate) fn end_cycle(&self) -> u64 {
        TimingParams::paper_default().ms_to_cycles(self.duration_ms)
    }
}

impl Experiment {
    /// Builds the experiment: generates the retention profile, bins it,
    /// and computes the MPRSF table from the analytical model.
    ///
    /// # Panics
    ///
    /// Panics if `config.rows` or `config.cells_per_row` is zero: the
    /// retention profile needs at least one cell. Command-line front
    /// ends reject `--rows 0` as a usage error before calling this.
    pub fn new(config: ExperimentConfig) -> Self {
        let profile = config.build_profile();
        let plan = config.build_plan(&profile);
        Experiment {
            config,
            model: Arc::new(AnalyticalModel::new(Technology::n90())),
            profile: Arc::new(profile),
            plan: Arc::new(plan),
            power: Arc::new(PowerModel::paper_default()),
        }
    }

    /// Builds an experiment around pre-built shared artifacts — the
    /// generated retention profile and the refresh plan (binning +
    /// MPRSF tables) — instead of regenerating them. This is the seam
    /// `vrl-serve`'s content-addressed artifact cache uses to share one
    /// profile/plan across every request with the same generating
    /// config: the cheap, parameter-free artifacts (analytical model,
    /// power model) are still built fresh.
    ///
    /// The caller is responsible for `profile` and `plan` having been
    /// built from `config` (same rows, cells per row, seed, nbits, and
    /// guard band); results are only meaningful — and only bit-identical
    /// to [`Experiment::new`] — under that contract.
    pub fn from_artifacts(
        config: ExperimentConfig,
        profile: Arc<BankProfile>,
        plan: Arc<RefreshPlan>,
    ) -> Self {
        Experiment {
            config,
            model: Arc::new(AnalyticalModel::new(Technology::n90())),
            profile,
            plan,
            power: Arc::new(PowerModel::paper_default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The analytical model.
    pub fn model(&self) -> &AnalyticalModel {
        &self.model
    }

    /// The retention profile.
    pub fn profile(&self) -> &BankProfile {
        &self.profile
    }

    /// The refresh plan (binning + MPRSF).
    pub fn plan(&self) -> &RefreshPlan {
        &self.plan
    }

    /// The power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The `Arc` behind [`Experiment::plan`], for callers that fan the
    /// plan across threads themselves.
    pub fn plan_shared(&self) -> Arc<RefreshPlan> {
        Arc::clone(&self.plan)
    }

    /// The `Arc` behind [`Experiment::profile`], for artifact caches
    /// that share the generated profile across experiments.
    pub fn profile_shared(&self) -> Arc<BankProfile> {
        Arc::clone(&self.profile)
    }

    /// Materializes one benchmark's deterministic trace as an owned
    /// record vector. Runs normally stream [`Experiment::trace`]; a
    /// materialized trace is for callers that replay the same records
    /// many times — `vrl-serve` caches them per
    /// `(benchmark, rows, seed, duration)` and passes
    /// `trace.iter().copied()` to [`Experiment::run`], bit-identical to
    /// streaming generation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] for an unknown benchmark name.
    pub fn materialize_trace(&self, benchmark: &str) -> Result<Vec<TraceRecord>, Error> {
        Ok(self.trace(benchmark)?.collect())
    }

    /// One benchmark's deterministic trace over this experiment's rows,
    /// seed and duration, generated lazily — the trace every
    /// [`Experiment::run`] caller streams.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] for an unknown benchmark name,
    /// with the list of known benchmarks.
    pub fn trace(&self, benchmark: &str) -> Result<vrl_trace::gen::Records, Error> {
        let spec = WorkloadSpec::parsec(benchmark).ok_or_else(|| Error::UnknownWorkload {
            requested: benchmark.to_owned(),
            known: WorkloadSpec::BENCHMARKS
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        })?;
        let workload = Workload::new(spec, self.config.rows, self.config.seed);
        Ok(workload.records(self.config.duration_ms))
    }

    /// [`Experiment::run`] on [`Engine::Sim`] over the benchmark's
    /// streamed trace. Kept for `perfbench/`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] for an unknown benchmark name,
    /// with the list of known benchmarks.
    pub fn run_policy(&self, kind: PolicyKind, benchmark: &str) -> Result<SimStats, Error> {
        let trace = self.trace(benchmark)?;
        Ok(self.run_policy_with(kind, trace, &mut NullObserver))
    }

    /// [`Experiment::run`] on [`Engine::Sim`] over an explicit trace,
    /// reporting events to an observer. Kept for `perfbench/`.
    pub fn run_policy_with<I, O>(&self, kind: PolicyKind, trace: I, observer: &mut O) -> SimStats
    where
        I: Iterator<Item = TraceRecord>,
        O: SimObserver,
    {
        let outcome = self.run(&Engine::Sim, kind, trace, 0, observer, |_| {});
        outcome
            .expect("the single-bank simulator cannot fail")
            .into_sim()
    }

    /// Every row's profiled (weakest-cell) retention.
    pub fn profiled_retention(&self) -> Vec<f64> {
        self.profile.iter().map(|r| r.weakest_ms).collect()
    }

    /// The ground-truth charge checker over the given row retentions.
    /// Observing a run with a checker over
    /// [`Experiment::profiled_retention`] counts the plan's charge
    /// violations (zero for a sound plan).
    pub fn integrity_checker(&self, retention_ms: Vec<f64>) -> IntegrityChecker<ModelPhysics> {
        IntegrityChecker::new(
            ModelPhysics::n90(),
            TimingParams::paper_default(),
            retention_ms,
        )
    }

    /// The Figure 4 comparison for one benchmark, run serially.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] for an unknown benchmark name.
    pub fn compare(&self, benchmark: &str) -> Result<ComparisonRow, Error> {
        let cells = Self::COMPARE_POLICIES
            .iter()
            .map(|&kind| self.cell(&Engine::Sim, benchmark, kind))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.assemble_row(&cells))
    }

    /// Builds one comparison row from its benchmark's RAIDR, VRL and
    /// VRL-Access cells. Shared by [`Experiment::compare`] and
    /// [`Experiment::compare_all`] so their arithmetic is identical.
    fn assemble_row(&self, cells: &[MatrixCell]) -> ComparisonRow {
        let [raidr, vrl, vrl_access] = [0, 1, 2].map(|i| cells[i].outcome.sim_stats());
        let raidr_power: PowerBreakdown = self.power.breakdown(raidr);
        let va_power: PowerBreakdown = self.power.breakdown(vrl_access);
        ComparisonRow {
            benchmark: cells[0].benchmark.clone(),
            raidr_cycles: raidr.refresh_busy_cycles,
            vrl_cycles: vrl.refresh_busy_cycles,
            vrl_access_cycles: vrl_access.refresh_busy_cycles,
            vrl_normalized: vrl.refresh_busy_cycles as f64 / raidr.refresh_busy_cycles as f64,
            vrl_access_normalized: vrl_access.refresh_busy_cycles as f64
                / raidr.refresh_busy_cycles as f64,
            raidr_refresh_mw: raidr_power.refresh_mw,
            vrl_access_refresh_mw: va_power.refresh_mw,
        }
    }

    /// The policies a Figure 4 comparison needs, in column order.
    const COMPARE_POLICIES: [PolicyKind; 3] =
        [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];

    /// The full Figure 4 — every benchmark — fanned across `pool`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing benchmark's [`Error`] (in job
    /// order) instead of silently dropping it; a worker panic surfaces
    /// as [`Error::WorkerPanic`].
    pub fn compare_all(&self, pool: &ExecConfig) -> Result<Vec<ComparisonRow>, Error> {
        let (cells, _) = self.run_matrix(&Engine::Sim, &Self::COMPARE_POLICIES, pool)?;
        Ok(cells
            .chunks_exact(Self::COMPARE_POLICIES.len())
            .map(|group| self.assemble_row(group))
            .collect())
    }

    /// Runs the (benchmark × policy) matrix on `engine` through the
    /// worker pool: every workload in Figure 4 order crossed with
    /// `policies`, one unsegmented, unobserved [`Experiment::run`] per
    /// job, results in job order (benchmark-major). Also returns the
    /// pool's timing report — the raw material for the throughput meter.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-job-index failure; worker panics surface
    /// as [`Error::WorkerPanic`].
    pub fn run_matrix(
        &self,
        engine: &Engine,
        policies: &[PolicyKind],
        pool: &ExecConfig,
    ) -> Result<(Vec<MatrixCell>, PoolReport), Error> {
        let jobs: Vec<_> = matrix_jobs(policies).collect();
        self.run_cells(engine, &jobs, pool)
    }

    /// Runs each (benchmark, policy) job on `engine` through the worker
    /// pool, in job order, with the pool's timing report.
    pub(crate) fn run_cells(
        &self,
        engine: &Engine,
        jobs: &[(&str, PolicyKind)],
        pool: &ExecConfig,
    ) -> Result<(Vec<MatrixCell>, PoolReport), Error> {
        let (result, report) = map_ordered_report(pool, jobs, |_, &(benchmark, kind)| {
            self.cell(engine, benchmark, kind)
        });
        Ok((result.map_err(Error::from)?, report))
    }

    /// One matrix cell: `kind` on `engine` over the benchmark's streamed
    /// trace — the job every sweep runs.
    pub(crate) fn cell(
        &self,
        engine: &Engine,
        benchmark: &str,
        kind: PolicyKind,
    ) -> Result<MatrixCell, Error> {
        let trace = self.trace(benchmark)?;
        let outcome = self.run(engine, kind, trace, 0, &mut NullObserver, |_| {})?;
        Ok(MatrixCell {
            benchmark: benchmark.to_owned(),
            policy: kind,
            outcome,
        })
    }

    /// A scheduler geometry for this experiment's bank: the configured
    /// row count split across `banks` banks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] if `banks` does not evenly split
    /// [`ExperimentConfig::rows`] into power-of-two banks of power-of-two
    /// rows (the address map needs whole bit fields).
    pub fn sched_config(&self, banks: u32) -> Result<SchedConfig, Error> {
        if banks == 0 || !self.config.rows.is_multiple_of(banks) {
            return Err(Error::Sim(vrl_dram_sim::Error::InvalidConfig {
                reason: format!(
                    "{banks} banks cannot evenly split {} rows",
                    self.config.rows
                ),
            }));
        }
        Ok(SchedConfig::with_geometry(banks, self.config.rows / banks)?)
    }

    /// A full-DIMM scheduler geometry for this experiment: the
    /// configured row count split evenly across
    /// `channels × ranks × banks_per_rank` banks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Sim`] if the geometry does not evenly split
    /// [`ExperimentConfig::rows`] into power-of-two banks of
    /// power-of-two rows (the address map needs whole bit fields).
    pub fn dimm_config(
        &self,
        channels: u32,
        ranks: u32,
        banks_per_rank: u32,
    ) -> Result<SchedConfig, Error> {
        let banks = channels
            .checked_mul(ranks)
            .and_then(|n| n.checked_mul(banks_per_rank))
            .unwrap_or(0);
        if banks == 0 || !self.config.rows.is_multiple_of(banks) {
            return Err(Error::Sim(vrl_dram_sim::Error::InvalidConfig {
                reason: format!(
                    "{channels} channels × {ranks} ranks × {banks_per_rank} banks \
                     cannot evenly split {} rows",
                    self.config.rows
                ),
            }));
        }
        Ok(SchedConfig::with_dimm_geometry(
            channels,
            ranks,
            banks_per_rank,
            self.config.rows / banks,
        )?)
    }

    /// [`Experiment::run`] on [`Engine::Faulted`] over the benchmark's
    /// streamed trace. Kept for `perfbench/`.
    ///
    /// Unguarded runs keep the ground-truth [`IntegrityChecker`] attached
    /// so silent data loss is visible in
    /// [`FaultedOutcome::violations`]; guarded runs report corrected /
    /// uncorrected errors through [`FaultedOutcome::guard`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownWorkload`] for an unknown benchmark name.
    pub fn run_faulted(
        &self,
        kind: PolicyKind,
        benchmark: &str,
        faults: &FaultConfig,
        guard: Option<&GuardConfig>,
    ) -> Result<FaultedOutcome, Error> {
        let engine = Engine::Faulted {
            faults: *faults,
            guard: guard.copied(),
        };
        let trace = self.trace(benchmark)?;
        let outcome = self.run(&engine, kind, trace, 0, &mut NullObserver, |_| {})?;
        Ok(outcome.into_faulted())
    }
}

/// Every Figure 4 workload crossed with `policies`, benchmark-major.
pub(crate) fn matrix_jobs(
    policies: &[PolicyKind],
) -> impl Iterator<Item = (&'static str, PolicyKind)> + '_ {
    WorkloadSpec::BENCHMARKS
        .into_iter()
        .flat_map(move |name| policies.iter().map(move |&kind| (name, kind)))
}

/// Routes one run's [`SimStats`] counters through a fresh metrics
/// registry and snapshots it — the canonical stats→metrics mapping the
/// CLI `--metrics` flags and the bench binaries share.
pub fn sim_metrics(stats: &SimStats) -> MetricsSnapshot {
    let mut reg = MetricsRegistry::new();
    for (name, value) in [
        ("sim.total_cycles", stats.total_cycles),
        ("sim.refresh_busy_cycles", stats.refresh_busy_cycles),
        ("sim.full_refreshes", stats.full_refreshes),
        ("sim.partial_refreshes", stats.partial_refreshes),
        ("sim.accesses", stats.accesses),
        ("sim.row_hits", stats.row_hits),
        ("sim.row_misses", stats.row_misses),
        ("sim.stall_cycles", stats.stall_cycles),
        ("sim.postponed_refreshes", stats.postponed_refreshes),
        ("sim.dropped_refreshes", stats.dropped_refreshes),
        ("sim.delayed_refreshes", stats.delayed_refreshes),
        ("sim.scrub_accesses", stats.scrub_accesses),
        ("sim.scrub_busy_cycles", stats.scrub_busy_cycles),
        ("sim.corrected_errors", stats.corrected_errors),
        ("sim.uncorrected_errors", stats.uncorrected_errors),
    ] {
        let c = reg.counter(name);
        reg.add(c, value);
    }
    reg.snapshot()
}

/// Routes one scheduler run's [`SchedStats`] (base counters plus
/// queueing/parallelization metrics and a latency summary) through a
/// fresh metrics registry and snapshots it.
pub fn sched_metrics(stats: &SchedStats) -> MetricsSnapshot {
    let mut base = sim_metrics(&stats.sim);
    let mut reg = MetricsRegistry::new();
    for (name, value) in [
        ("sched.reordered", stats.reordered),
        ("sched.refresh_blocked_cycles", stats.refresh_blocked_cycles),
        ("sched.pulled_in_refreshes", stats.pulled_in_refreshes),
        ("sched.queue_stalls", stats.queue_stalls),
    ] {
        let c = reg.counter(name);
        reg.add(c, value);
    }
    for (name, value) in [
        ("sched.max_queue_depth", stats.max_queue_depth as u64),
        ("sched.read_latency_p50", stats.read_latency.quantile(0.5)),
        ("sched.read_latency_p99", stats.read_latency.quantile(0.99)),
        ("sched.read_latency_max", stats.read_latency.max()),
    ] {
        let g = reg.gauge(name);
        reg.set_max(g, value);
    }
    base.merge(&reg.snapshot())
        .expect("disjoint metric names cannot conflict");
    base
}

/// One cell of a (benchmark × policy) sweep ([`Experiment::run_matrix`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Benchmark name.
    pub benchmark: String,
    /// The policy that ran.
    pub policy: PolicyKind,
    /// What the engine reported.
    pub outcome: Outcome,
}

/// The result of a fault-injected run ([`Experiment::run_faulted`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultedOutcome {
    /// Simulator counters (includes scrub and guard error tallies when
    /// guarded).
    pub stats: SimStats,
    /// Ground-truth charge violations (unguarded runs only; a guarded
    /// run reports through `guard` instead).
    pub violations: usize,
    /// Guard counters, when the guard was enabled.
    pub guard: Option<GuardStats>,
    /// What the injector actually did.
    pub faults: FaultStats,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn small() -> Experiment {
        Experiment::new(ExperimentConfig {
            rows: 512,
            duration_ms: 512.0,
            ..Default::default()
        })
    }

    /// An unsegmented, unobserved run of `kind` on `engine`.
    pub(crate) fn run(
        e: &Experiment,
        engine: &Engine,
        kind: PolicyKind,
        benchmark: &str,
    ) -> Result<Outcome, Error> {
        e.run(
            engine,
            kind,
            e.trace(benchmark)?,
            0,
            &mut NullObserver,
            |_| {},
        )
    }

    /// A run under the integrity checker, with its charge violations.
    fn checked(
        e: &Experiment,
        engine: &Engine,
        kind: PolicyKind,
        benchmark: &str,
    ) -> Result<(Outcome, usize), Error> {
        let mut checker = e.integrity_checker(e.profiled_retention());
        let outcome = e.run(engine, kind, e.trace(benchmark)?, 0, &mut checker, |_| {})?;
        Ok((outcome, checker.violations().len()))
    }

    #[test]
    fn vrl_beats_raidr_beats_auto() {
        let e = small();
        let auto = e.run_policy(PolicyKind::Auto, "ferret").expect("known");
        let raidr = e.run_policy(PolicyKind::Raidr, "ferret").expect("known");
        let vrl = e.run_policy(PolicyKind::Vrl, "ferret").expect("known");
        assert!(raidr.refresh_busy_cycles < auto.refresh_busy_cycles);
        assert!(vrl.refresh_busy_cycles < raidr.refresh_busy_cycles);
    }

    #[test]
    fn vrl_access_beats_vrl_on_covering_workloads() {
        let e = small();
        let row = e.compare("bgsave").expect("known");
        assert!(
            row.vrl_access_cycles < row.vrl_cycles,
            "bgsave touches every row: {row:?}"
        );
    }

    #[test]
    fn unknown_benchmark_is_an_error_listing_alternatives() {
        let e = small();
        let err = e.run_policy(PolicyKind::Vrl, "nope").unwrap_err();
        match &err {
            Error::UnknownWorkload { requested, known } => {
                assert_eq!(requested, "nope");
                assert!(known.iter().any(|k| k == "ferret"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(e.compare("nope").is_err());
        assert!(checked(&e, &Engine::Sim, PolicyKind::Vrl, "nope").is_err());
    }

    #[test]
    fn sched_config_requires_an_even_power_of_two_split() {
        let e = small();
        let cfg = e.sched_config(4).expect("512 rows over 4 banks");
        assert_eq!(cfg.banks(), 4);
        assert_eq!(cfg.total_rows(), 512);
        assert!(e.sched_config(0).is_err());
        assert!(e.sched_config(3).is_err());
    }

    #[test]
    fn scheduled_front_end_matches_frfcfs_with_one_bank() {
        // The degenerate scheduler (1 bank, no parallelism) must agree
        // with the FR-FCFS controller through the experiment plumbing
        // too, not just at the engine level.
        let e = small();
        let sched = e
            .sched_config(1)
            .expect("one bank")
            .with_parallelism(false)
            .with_slack(0)
            .with_queue_depth(32);
        for kind in PolicyKind::ALL {
            let s = run(&e, &Engine::Sched(sched), kind, "ferret")
                .expect("known")
                .into_sched();
            let c = run(&e, &Engine::FrFcfs { queue_depth: 32 }, kind, "ferret")
                .expect("known")
                .into_frfcfs();
            assert_eq!(s.sim, c.sim, "{} diverged", kind.name());
            assert_eq!(s.reordered, c.reordered);
        }
    }

    #[test]
    fn dimm_config_requires_an_even_power_of_two_split() {
        let e = small();
        let cfg = e.dimm_config(2, 2, 4).expect("512 rows over 16 banks");
        assert_eq!(cfg.channels(), 2);
        assert_eq!(cfg.ranks(), 2);
        assert_eq!(cfg.banks(), 16);
        assert_eq!(cfg.total_rows(), 512);
        assert!(e.dimm_config(0, 1, 4).is_err());
        assert!(e.dimm_config(3, 1, 1).is_err());
    }

    #[test]
    fn faulted_run_reports_injector_activity() {
        let e = small();
        let faults = FaultConfig::default_scenario(7);
        let out = e
            .run_faulted(PolicyKind::Vrl, "ferret", &faults, None)
            .expect("known");
        assert!(out.guard.is_none());
        assert!(out.faults.optimistic_rows > 0 || out.faults.vrt_rows > 0);
        assert!(out.stats.total_cycles > 0);
    }

    #[test]
    fn guarded_run_reports_guard_stats() {
        let e = small();
        let faults = FaultConfig::default_scenario(7);
        let out = e
            .run_faulted(
                PolicyKind::Vrl,
                "ferret",
                &faults,
                Some(&GuardConfig::default()),
            )
            .expect("known");
        let guard = out.guard.expect("guard stats");
        assert_eq!(out.violations, 0);
        assert_eq!(guard.uncorrected, 0, "guard must not lose data: {guard:?}");
        assert!(out.stats.scrub_accesses > 0);
    }

    #[test]
    fn faulted_runs_over_a_materialized_trace_are_bit_identical() {
        let e = small();
        let faults = FaultConfig::default_scenario(7);
        let guard = GuardConfig::default();
        for guard in [None, Some(&guard)] {
            let streamed = e
                .run_faulted(PolicyKind::Vrl, "ferret", &faults, guard)
                .expect("known");
            let trace = e.materialize_trace("ferret").expect("known");
            let engine = Engine::Faulted {
                faults,
                guard: guard.copied(),
            };
            let replayed = e
                .run(
                    &engine,
                    PolicyKind::Vrl,
                    trace.into_iter(),
                    0,
                    &mut NullObserver,
                    |_| {},
                )
                .expect("runs")
                .into_faulted();
            assert_eq!(streamed, replayed, "guarded: {}", guard.is_some());
        }
    }

    #[test]
    fn vrl_plan_is_integrity_safe() {
        let e = small();
        let (_, violations) =
            checked(&e, &Engine::Sim, PolicyKind::Vrl, "swaptions").expect("known");
        assert_eq!(violations, 0, "the computed MPRSF must never lose data");
    }

    #[test]
    fn vrl_access_plan_is_integrity_safe() {
        let e = small();
        let (_, violations) =
            checked(&e, &Engine::Sim, PolicyKind::VrlAccess, "bgsave").expect("known");
        assert_eq!(violations, 0);
    }

    #[test]
    fn normalized_values_are_consistent() {
        let e = small();
        let row = e.compare("vips").expect("known");
        assert!(row.vrl_normalized > 0.5 && row.vrl_normalized < 1.0);
        assert!(row.vrl_access_normalized <= row.vrl_normalized + 1e-9);
        assert!(row.vrl_access_refresh_mw < row.raidr_refresh_mw);
    }

    #[test]
    fn compare_all_propagates_errors_instead_of_dropping() {
        // An experiment whose matrix contains a failing job must surface
        // the error, not return a shorter Vec. `run_matrix` is the
        // machinery `compare_all` sits on; drive it directly with a bad
        // job via run_policy on an unknown name.
        let e = small();
        let err = e.run_policy(PolicyKind::Vrl, "nope").unwrap_err();
        assert!(matches!(err, Error::UnknownWorkload { .. }));
        // All benchmark names are known, so the happy path returns every
        // row — one per benchmark, in Figure 4 order.
        let rows = e
            .compare_all(&ExecConfig::from_env())
            .expect("all benchmarks known");
        assert_eq!(rows.len(), WorkloadSpec::BENCHMARKS.len());
        for (row, name) in rows.iter().zip(WorkloadSpec::BENCHMARKS) {
            assert_eq!(row.benchmark, name);
        }
    }

    #[test]
    fn parallel_compare_matches_serial_for_one_seed() {
        // The cross-seed sweep lives in tests/parallel_exec.rs; this is
        // the fast in-crate smoke version.
        let e = Experiment::new(ExperimentConfig {
            rows: 128,
            duration_ms: 64.0,
            ..Default::default()
        });
        let serial: Vec<_> = WorkloadSpec::BENCHMARKS
            .iter()
            .map(|name| e.compare(name).expect("known"))
            .collect();
        let parallel = e.compare_all(&ExecConfig::new(4)).expect("parallel path");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn matrix_cells_come_back_benchmark_major() {
        let e = Experiment::new(ExperimentConfig {
            rows: 64,
            duration_ms: 64.0,
            ..Default::default()
        });
        let policies = [PolicyKind::Raidr, PolicyKind::Vrl];
        let (cells, report) = e
            .run_matrix(&Engine::Sim, &policies, &ExecConfig::new(2))
            .expect("known benchmarks");
        assert_eq!(cells.len(), WorkloadSpec::BENCHMARKS.len() * 2);
        assert_eq!(report.jobs, cells.len());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.benchmark, WorkloadSpec::BENCHMARKS[i / 2]);
            assert_eq!(cell.policy, policies[i % 2]);
        }
        let (serial, _) = e
            .run_matrix(&Engine::Sim, &policies, &ExecConfig::new(1))
            .expect("serial matrix");
        assert_eq!(cells, serial);
    }

    #[test]
    fn traced_runs_match_untraced_and_capture_events() {
        use vrl_obs::EventKind;
        let e = Experiment::new(ExperimentConfig {
            rows: 256,
            duration_ms: 128.0,
            ..Default::default()
        });
        let sched = e.sched_config(4).expect("4 banks");
        let engine = Engine::Sched(sched);
        let plain = run(&e, &engine, PolicyKind::VrlAccess, "bgsave").expect("known");
        let mut recorder = engine.recorder("bgsave", PolicyKind::VrlAccess);
        let trace = e.trace("bgsave").expect("known");
        let traced = e
            .run(
                &engine,
                PolicyKind::VrlAccess,
                trace,
                0,
                &mut recorder,
                |_| {},
            )
            .expect("known")
            .into_sched();
        let stream = recorder.finish();
        let plain = plain.into_sched();
        assert_eq!(plain, traced, "recording must not perturb the run");
        assert_eq!(stream.policy, "vrl-access");
        assert!(!stream.events.is_empty());
        let activations = stream
            .events
            .iter()
            .filter(|ev| ev.kind == EventKind::Activate)
            .count() as u64;
        assert_eq!(activations, traced.sim.row_misses);
        // Banks are derived from the scheduler's address map.
        assert!(stream.events.iter().any(|ev| ev.bank > 0));
        assert!(stream.events.iter().all(|ev| ev.bank < sched.banks()));
    }

    #[test]
    fn metrics_snapshots_mirror_the_stats() {
        let e = Experiment::new(ExperimentConfig {
            rows: 128,
            duration_ms: 64.0,
            ..Default::default()
        });
        let sched = e.sched_config(4).expect("4 banks");
        let stats = run(&e, &Engine::Sched(sched), PolicyKind::Vrl, "ferret")
            .expect("known")
            .into_sched();
        let snap = sched_metrics(&stats);
        assert_eq!(snap.counter("sim.accesses"), stats.sim.accesses);
        assert_eq!(
            snap.counter("sim.partial_refreshes"),
            stats.sim.partial_refreshes
        );
        assert_eq!(
            snap.gauge("sched.max_queue_depth"),
            stats.max_queue_depth as u64
        );
        // Merging per-benchmark snapshots sums the counters.
        let merged = MetricsSnapshot::merged([&snap, &snap]).expect("same shapes");
        assert_eq!(merged.counter("sim.accesses"), 2 * stats.sim.accesses);
    }

    #[test]
    fn cloned_experiments_share_the_plan() {
        let e = small();
        let clone = e.clone();
        assert!(std::ptr::eq(e.plan(), clone.plan()), "plan must be shared");
        assert!(Arc::ptr_eq(&e.plan_shared(), &clone.plan_shared()));
    }
}
