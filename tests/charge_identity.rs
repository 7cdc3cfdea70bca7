//! Bit-identity guard for charge tracking in faulted runs.
//!
//! Faulted jobs run the single-bank simulator under a fault injector,
//! watched either by the runtime [`Guard`] or by the
//! [`IntegrityChecker`]. Both decide, on every activation, refresh and
//! scrub, whether a row's charge fell below the sensing threshold.
//!
//! The constants below are FNV-1a 64 hashes of one faulted run each:
//! its [`FaultedOutcome`] as JSON, and every observer callback in order
//! (refresh, activate, retention change, scrub, degrade, postponement,
//! refresh fault). They were recorded from the checker and guard that
//! leaked every row with `exp` on every activation. A speed change to
//! charge tracking must leave them passing unedited; a change meant to
//! alter results re-records them and says so.
//!
//! The cases cover serve-cold's faulted specs (512 rows, 64 ms, the
//! default fault scenario at fault seed `seed ^ 0x5eed`), the default
//! scenario at 1024 ms where the checker finds violations and the guard
//! corrects errors, and the reckless-row and VRT setups of
//! `tests/fault_injection.rs` with traffic added, which produce
//! corrected and uncorrected errors, violations, scrubs and degrades.
//!
//! The last tests diff the checker and the guard against the exact
//! `exp` path, written out below as the spec, on random event
//! sequences: activations at zero elapsed time and at the cycles around
//! each row's threshold crossing, charges a few ULPs either side of the
//! threshold, refreshes, retention changes and scrubs. The `#[ignore]`d
//! version runs over ten million activations on each of the two:
//! `cargo test --release --test charge_identity -- --ignored`.

use vrl::core::experiment::{Experiment, ExperimentConfig, FaultedOutcome, PolicyKind};
use vrl::core::physics::ModelPhysics;
use vrl::core::{Engine, Outcome};
use vrl::dram::fault::{FaultConfig, FaultInjector, VrtFault};
use vrl::dram::guard::{Guard, GuardConfig};
use vrl::dram::integrity::{ChargePhysics, IntegrityChecker, LinearPhysics};
use vrl::dram::policy::{AdaptivePolicy, DegradeAction, Vrl};
use vrl::dram::sim::{Fanout, NullObserver, SimConfig, SimObserver, Simulator};
use vrl::dram::{RefreshLatency, TimingParams};
use vrl::retention::binning::BinningTable;
use vrl::retention::leakage::LeakageModel;
use vrl::retention::profile::BankProfile;
use vrl::trace::{Op, TraceRecord};

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every callback, in order, into one hash, and counts the kinds
/// a case must exercise.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HashingObserver {
    hash: u64,
    activations: u64,
    retention_changes: u64,
    scrubs: u64,
    degrades: u64,
}

impl Default for HashingObserver {
    fn default() -> Self {
        HashingObserver {
            hash: FNV_OFFSET,
            activations: 0,
            retention_changes: 0,
            scrubs: 0,
            degrades: 0,
        }
    }
}

impl HashingObserver {
    fn fold(&mut self, kind: u8, row: u32, cycle: u64) {
        self.hash = fnv1a64(self.hash, &[kind]);
        self.hash = fnv1a64(self.hash, &row.to_le_bytes());
        self.hash = fnv1a64(self.hash, &cycle.to_le_bytes());
    }
}

impl SimObserver for HashingObserver {
    fn on_refresh(&mut self, row: u32, kind: RefreshLatency, cycle: u64) {
        let tag = match kind {
            RefreshLatency::Full => 0,
            RefreshLatency::Partial => 1,
        };
        self.fold(tag, row, cycle);
    }

    fn on_activate(&mut self, row: u32, cycle: u64) {
        self.activations += 1;
        self.fold(2, row, cycle);
    }

    fn on_retention_change(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        self.retention_changes += 1;
        self.fold(3, row, cycle);
        self.hash = fnv1a64(self.hash, &retention_ms.to_bits().to_le_bytes());
    }

    fn on_refresh_postponed(&mut self, row: u32, cycle: u64) {
        self.fold(4, row, cycle);
    }

    fn on_refresh_fault(&mut self, row: u32, dropped: bool, cycle: u64) {
        self.fold(5 + u8::from(dropped), row, cycle);
    }

    fn on_scrub(&mut self, row: u32, cycle: u64) {
        self.scrubs += 1;
        self.fold(7, row, cycle);
    }

    fn on_degrade(&mut self, row: u32, action: DegradeAction, cycle: u64) {
        self.degrades += 1;
        self.fold(8, row, cycle);
        self.hash = fnv1a64(self.hash, format!("{action:?}").as_bytes());
    }
}

fn outcome_hash(outcome: &FaultedOutcome) -> u64 {
    fnv1a64(
        FNV_OFFSET,
        serde_json::to_string(outcome)
            .expect("serializable")
            .as_bytes(),
    )
}

/// One faulted run: the outcome and the observed event stream.
struct Run {
    outcome: FaultedOutcome,
    events: HashingObserver,
}

impl Run {
    fn hashes(&self) -> (u64, u64) {
        (outcome_hash(&self.outcome), self.events.hash)
    }
}

/// Runs `sim` over `trace` as a faulted job does: under `guard` when
/// given, else under an integrity checker over `true_retention`.
fn faulted_run<P, C, I>(
    mut sim: Simulator<P>,
    physics: C,
    true_retention: Vec<f64>,
    guard: Option<GuardConfig>,
    trace: I,
    duration_ms: f64,
) -> Run
where
    P: AdaptivePolicy,
    C: ChargePhysics,
    I: Iterator<Item = TraceRecord>,
{
    let timing = TimingParams::paper_default();
    let mut events = HashingObserver::default();
    let (stats, violations, guard) = match guard {
        Some(cfg) => {
            let mut guard = Guard::new(physics, timing, true_retention, cfg);
            let stats = sim.run_guarded_observed(trace, duration_ms, &mut guard, &mut events);
            (stats, 0, Some(guard.stats()))
        }
        None => {
            let mut checker = IntegrityChecker::new(physics, timing, true_retention);
            let stats = sim.run_observed(
                trace,
                duration_ms,
                &mut Fanout::new(&mut checker, &mut events),
            );
            (stats, checker.violations().len(), None)
        }
    };
    let faults = sim
        .fault_injector()
        .map(FaultInjector::stats)
        .unwrap_or_default();
    Run {
        outcome: FaultedOutcome {
            stats,
            violations,
            guard,
            faults,
        },
        events,
    }
}

/// One served faulted spec.
struct Served {
    rows: u32,
    duration_ms: f64,
    seed: u64,
    fault_seed: u64,
    benchmark: &'static str,
    policy: PolicyKind,
    guard: bool,
}

impl Served {
    fn experiment(&self) -> Experiment {
        Experiment::new(ExperimentConfig {
            rows: self.rows,
            duration_ms: self.duration_ms,
            seed: self.seed,
            ..Default::default()
        })
    }

    /// The served outcome through `Experiment::run`, and the same run
    /// driven directly with an observer, which must agree with it.
    fn run(&self, experiment: &Experiment) -> Run {
        let faults = FaultConfig::default_scenario(self.fault_seed);
        let guard = self.guard.then(GuardConfig::default);
        let engine = Engine::Faulted { faults, guard };
        let trace = experiment.trace(self.benchmark).expect("benchmark");
        let served = experiment
            .run(&engine, self.policy, trace, 0, &mut NullObserver, |_| {})
            .expect("faulted run");
        let Outcome::Faulted(served) = served else {
            panic!("a faulted engine returns a faulted outcome");
        };
        let plan = experiment.plan();
        let trace = experiment.trace(self.benchmark).expect("benchmark");
        let direct = match self.policy {
            PolicyKind::Raidr => self.direct(experiment, plan.raidr(), trace),
            PolicyKind::Vrl => self.direct(experiment, plan.vrl(), trace),
            PolicyKind::VrlAccess => self.direct(experiment, plan.vrl_access(), trace),
            PolicyKind::Auto => unreachable!("not a served policy"),
        };
        assert_eq!(
            direct.outcome,
            served,
            "{}/{}: the observed run diverged from the served one",
            self.benchmark,
            self.policy.name()
        );
        direct
    }

    fn direct<P: AdaptivePolicy, I: Iterator<Item = TraceRecord>>(
        &self,
        experiment: &Experiment,
        policy: P,
        trace: I,
    ) -> Run {
        let timing = TimingParams::paper_default();
        let faults = FaultConfig::default_scenario(self.fault_seed);
        let injector = FaultInjector::new(faults, &experiment.profiled_retention(), timing);
        let true_retention = injector.true_retention();
        let mut sim = Simulator::new(SimConfig::with_rows(self.rows), policy);
        sim.set_fault_injector(injector);
        let guard = self.guard.then(GuardConfig::default);
        faulted_run(
            sim,
            ModelPhysics::n90(),
            true_retention,
            guard,
            trace,
            self.duration_ms,
        )
    }
}

const POLICIES: [PolicyKind; 3] = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];

/// `(benchmark, policy, guard, outcome hash, event hash)` of serve-cold's
/// faulted specs at seed 1.
const SERVE_COLD: &[(&str, &str, bool, u64, u64)] = &[
    (
        "ferret",
        "raidr",
        true,
        0x601146e611dbbea8,
        0x5764bdada09e98c8,
    ),
    (
        "ferret",
        "vrl",
        true,
        0xc988c711b820382d,
        0x9e9931dc3b4337c2,
    ),
    (
        "ferret",
        "vrl-access",
        true,
        0xc988c711b820382d,
        0x9e9931dc3b4337c2,
    ),
    (
        "ferret",
        "raidr",
        false,
        0xbe7b2b6fe0b4de79,
        0x97a5de0e3e34d01e,
    ),
    (
        "ferret",
        "vrl",
        false,
        0x584f3fe042973123,
        0x7ba1d03bcbb0a268,
    ),
    (
        "ferret",
        "vrl-access",
        false,
        0x584f3fe042973123,
        0x7ba1d03bcbb0a268,
    ),
    (
        "canneal",
        "raidr",
        true,
        0xa78f1467731c8d19,
        0x472f907d806a5947,
    ),
    (
        "canneal",
        "vrl",
        true,
        0x507fad00ce246146,
        0x12eb1612de7db4fc,
    ),
    (
        "canneal",
        "vrl-access",
        true,
        0x507fad00ce246146,
        0x12eb1612de7db4fc,
    ),
    (
        "bgsave",
        "raidr",
        false,
        0x562c825e8a2e6eda,
        0x041e8ed3999186ff,
    ),
    (
        "bgsave",
        "vrl",
        false,
        0xaa75a7e6ba7cde3e,
        0x601a114b1ffc1bae,
    ),
    (
        "bgsave",
        "vrl-access",
        false,
        0xaa75a7e6ba7cde3e,
        0x601a114b1ffc1bae,
    ),
];

/// `(benchmark, policy, guard, outcome hash, event hash)` of the default
/// scenario at 256 rows / 1024 ms, seed 42, fault seed 42, under VRL.
const LONG_DEFAULT: &[(&str, &str, bool, u64, u64)] = &[
    (
        "ferret",
        "vrl",
        true,
        0xa265017028bc4efd,
        0x61a962128e224020,
    ),
    (
        "ferret",
        "vrl",
        false,
        0xb677798076ce0d12,
        0x7aba415829e09b48,
    ),
];

fn check_served(
    expected: &[(&str, &str, bool, u64, u64)],
    config: impl Fn(&'static str, PolicyKind, bool) -> Served,
    cases: &[(&'static str, bool)],
    policies: &[PolicyKind],
    check: impl Fn(&Served, &Run),
) {
    let mut actual = Vec::new();
    let mut experiment = None;
    for &(benchmark, guard) in cases {
        for &policy in policies {
            let served = config(benchmark, policy, guard);
            let experiment = experiment.get_or_insert_with(|| served.experiment());
            let run = served.run(experiment);
            check(&served, &run);
            let (outcome, events) = run.hashes();
            actual.push((benchmark, policy.name(), guard, outcome, events));
        }
    }
    let render = |rows: &[(&str, &str, bool, u64, u64)]| {
        rows.iter()
            .map(|(b, p, g, o, e)| format!("    ({b:?}, {p:?}, {g}, 0x{o:016x}, 0x{e:016x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        actual == expected,
        "faulted runs changed; actual:\n{}",
        render(&actual)
    );
}

#[test]
fn serve_cold_faulted_specs_match_the_recorded_hashes() {
    let seed = 1;
    check_served(
        SERVE_COLD,
        |benchmark, policy, guard| Served {
            rows: 512,
            duration_ms: 64.0,
            seed,
            fault_seed: seed ^ 0x5eed,
            benchmark,
            policy,
            guard,
        },
        &[
            ("ferret", true),
            ("ferret", false),
            ("canneal", true),
            ("bgsave", false),
        ],
        &POLICIES,
        |served, run| {
            assert!(
                run.events.activations > 0,
                "{}: no activation",
                served.benchmark
            );
            if served.guard {
                assert!(run.events.scrubs > 0, "{}: no scrub", served.benchmark);
            }
        },
    );
}

#[test]
fn the_default_scenario_at_1024_ms_matches_the_recorded_hashes() {
    check_served(
        LONG_DEFAULT,
        |benchmark, policy, guard| Served {
            rows: 256,
            duration_ms: 1024.0,
            seed: 42,
            fault_seed: 42,
            benchmark,
            policy,
            guard,
        },
        &[("ferret", true), ("ferret", false)],
        &[PolicyKind::Vrl],
        |_, run| {
            assert!(run.events.retention_changes > 0, "no VRT toggle");
            match run.outcome.guard {
                Some(g) => assert!(g.corrected > 0, "nothing corrected: {g:?}"),
                None => assert!(run.outcome.violations > 0, "no violation"),
            }
        },
    );
}

/// The reckless-row and VRT setups of `tests/fault_injection.rs`, at
/// 512 ms, with traffic on half the rows so activations sense charge.
const ROWS: usize = 4;
const SETUP_MS: f64 = 4096.0;

fn linear() -> LinearPhysics {
    LinearPhysics {
        full: 0.95,
        partial_gain: 0.4,
        threshold: 0.62,
    }
}

/// Accesses to rows 0 and 1 at pseudo-random gaps of up to ~180 ms,
/// comparable to the rows' retention, so some activations find a row
/// already below threshold and others find it safe.
fn sparse_traffic(seed: u64) -> Vec<TraceRecord> {
    let timing = TimingParams::paper_default();
    let end = timing.ms_to_cycles(SETUP_MS);
    let mut lcg = seed;
    let mut cycle = 0u64;
    let mut trace = Vec::new();
    loop {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        cycle += (lcg >> 40) % timing.ms_to_cycles(90.0) + 1;
        if cycle >= end {
            return trace;
        }
        let row = ((lcg >> 20) & 1) as u32;
        trace.push(TraceRecord::new(cycle, Op::Read, row));
    }
}

fn reckless(guard: Option<GuardConfig>) -> Run {
    let retention = 280.0;
    let profile = BankProfile::from_rows(std::iter::repeat_n(retention, ROWS), 32);
    let bins = BinningTable::from_profile(&profile);
    let sim = Simulator::new(
        SimConfig::with_rows(ROWS as u32),
        Vrl::new(bins, vec![3; ROWS]),
    );
    faulted_run(
        sim,
        linear(),
        vec![retention; ROWS],
        guard,
        sparse_traffic(7).into_iter(),
        SETUP_MS,
    )
}

fn vrt(guard: Option<GuardConfig>) -> Run {
    let profiled = 300.0;
    let timing = TimingParams::paper_default();
    let profile = BankProfile::from_rows(std::iter::repeat_n(profiled, ROWS), 32);
    let bins = BinningTable::from_profile(&profile);
    let faults = FaultConfig {
        seed: 3,
        vrt: Some(VrtFault {
            fraction: 1.0,
            weak_factor: 0.7,
            toggle_probability: 0.5,
            step_ms: 64.0,
        }),
        ..Default::default()
    };
    let injector = FaultInjector::new(faults, &[profiled; ROWS], timing);
    let true_retention = injector.true_retention();
    let mut sim = Simulator::new(
        SimConfig::with_rows(ROWS as u32),
        Vrl::new(bins, vec![0; ROWS]),
    );
    sim.set_fault_injector(injector);
    faulted_run(
        sim,
        linear(),
        true_retention,
        guard,
        sparse_traffic(11).into_iter(),
        SETUP_MS,
    )
}

/// `(case, outcome hash, event hash)` of the fault-injection setups.
const SETUPS: &[(&str, u64, u64)] = &[
    ("reckless-guarded", 0x722cd760f212534c, 0x39d4e672d568d1f9),
    (
        "reckless-narrow-margin-scrubbed",
        0xeabecfa87d612a1f,
        0xbe05976f4a23b3aa,
    ),
    ("reckless-unguarded", 0xb01de6f7c887c73f, 0x9e0491126eff830f),
    ("vrt-guarded", 0x316a4b510b729b14, 0x379f9d9dac4e70de),
    ("vrt-unguarded", 0xfd7db2cc90ffc7a1, 0xbab2504c07ef0dfe),
];

#[test]
fn fault_injection_setups_with_traffic_match_the_recorded_hashes() {
    let wide = GuardConfig {
        margin: 0.12,
        scrub_interval_ms: 0.0,
    };
    let narrow = GuardConfig {
        margin: 0.01,
        scrub_interval_ms: 2048.0,
    };
    let vrt_guard = GuardConfig {
        margin: 0.09,
        scrub_interval_ms: 0.0,
    };
    let runs = [
        ("reckless-guarded", reckless(Some(wide))),
        ("reckless-narrow-margin-scrubbed", reckless(Some(narrow))),
        ("reckless-unguarded", reckless(None)),
        ("vrt-guarded", vrt(Some(vrt_guard))),
        ("vrt-unguarded", vrt(None)),
    ];
    let guard_of = |i: usize| runs[i].1.outcome.guard.expect("guarded");
    assert!(guard_of(0).corrected > 0, "{:?}", guard_of(0));
    assert!(guard_of(1).uncorrected > 0, "{:?}", guard_of(1));
    assert!(runs[1].1.events.scrubs > 0, "no scrub");
    assert!(runs[2].1.outcome.violations > 0, "no violation");
    assert!(runs[3].1.events.retention_changes > 0, "no VRT toggle");
    assert!(guard_of(3).bin_demotions > 0, "{:?}", guard_of(3));
    assert!(runs[4].1.outcome.violations > 0, "no violation");
    for (name, run) in &runs {
        assert!(run.events.activations > 0, "{name}: no activation");
        if run
            .outcome
            .guard
            .is_some_and(|g| g.corrected + g.uncorrected > 0)
        {
            assert!(run.events.degrades > 0, "{name}: no degrade");
        }
    }
    let actual: Vec<_> = runs
        .iter()
        .map(|(name, run)| {
            let (outcome, events) = run.hashes();
            (*name, outcome, events)
        })
        .collect();
    assert!(
        actual == SETUPS,
        "fault-injection setups changed; actual:\n{}",
        actual
            .iter()
            .map(|(n, o, e)| format!("    ({n:?}, 0x{o:016x}, 0x{e:016x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------
// The exact path, written out as the spec
// ---------------------------------------------------------------------

/// The charge every row would show if each sensing leaked it with `exp`:
/// the checker's and the guard's behaviour before any shortcut.
#[derive(Debug, Clone)]
struct ExactPath<C: ChargePhysics> {
    physics: C,
    leakage: LeakageModel,
    timing: TimingParams,
    /// `Some(margin)` for the guard, `None` for the checker.
    margin: Option<f64>,
    retention_ms: Vec<f64>,
    charge: Vec<f64>,
    last_cycle: Vec<u64>,
    /// Checker violations as `(row, cycle, charge bits)`.
    violations: Vec<(u32, u64, u64)>,
    corrected: u64,
    uncorrected: u64,
    pending: Vec<u32>,
    scrub_row: u32,
}

impl<C: ChargePhysics> ExactPath<C> {
    fn new(physics: C, retention_ms: Vec<f64>, margin: Option<f64>) -> Self {
        let full = physics.full_level();
        let rows = retention_ms.len();
        let leakage = LeakageModel::new(full, physics.threshold());
        ExactPath {
            physics,
            leakage,
            timing: TimingParams::paper_default(),
            margin,
            retention_ms,
            charge: vec![full; rows],
            last_cycle: vec![0; rows],
            violations: Vec::new(),
            corrected: 0,
            uncorrected: 0,
            pending: Vec::new(),
            scrub_row: 0,
        }
    }

    fn settle(&mut self, row: u32, cycle: u64) -> f64 {
        let r = row as usize;
        let elapsed_ms = self
            .timing
            .cycles_to_ms(cycle.saturating_sub(self.last_cycle[r]));
        let q = self
            .leakage
            .charge_after(self.charge[r], elapsed_ms, self.retention_ms[r]);
        self.charge[r] = q;
        self.last_cycle[r] = cycle;
        q
    }

    /// Leaks, checks, and (guard only) writes back a detected error.
    fn sense(&mut self, row: u32, cycle: u64) -> f64 {
        let q = self.settle(row, cycle);
        if q < self.physics.threshold() - 1e-9 {
            match self.margin {
                None => self.violations.push((row, cycle, q.to_bits())),
                Some(margin) => {
                    if q >= self.physics.threshold() - margin {
                        self.corrected += 1;
                    } else {
                        self.uncorrected += 1;
                    }
                    self.pending.push(row);
                    self.charge[row as usize] = self.physics.full_level();
                }
            }
        }
        self.charge[row as usize]
    }

    fn refresh(&mut self, row: u32, kind: RefreshLatency, cycle: u64) {
        let q = self.sense(row, cycle);
        self.charge[row as usize] = self.physics.after_refresh(kind, q);
    }

    fn activate(&mut self, row: u32, cycle: u64) {
        self.sense(row, cycle);
        self.charge[row as usize] = self.physics.full_level();
    }

    /// The checker senses a row whose retention changes; the guard only
    /// leaks it forward.
    fn retention_change(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        if self.margin.is_none() {
            self.sense(row, cycle);
        } else {
            self.settle(row, cycle);
        }
        self.retention_ms[row as usize] = retention_ms;
    }

    fn scrub(&mut self, cycle: u64) -> u32 {
        let row = self.scrub_row;
        self.scrub_row = (row + 1) % self.retention_ms.len() as u32;
        self.sense(row, cycle);
        self.charge[row as usize] = self.physics.full_level();
        row
    }

    /// The elapsed cycles (rounded down) after which a row at `charge`
    /// with retention `retention_ms` decays to `level`, if it is above.
    fn crossing(&self, charge: f64, level: f64, retention_ms: f64) -> Option<u64> {
        let ms = self.leakage.time_to_decay(charge, level, retention_ms)?;
        Some((ms * 1000.0 * self.timing.cycles_per_us as f64) as u64)
    }
}

/// A physics whose partial refresh lands a few ULPs from the sensing
/// floor `threshold − 1e-9` or from a 1e-6 band above it, chosen by the
/// bits of the incoming charge, so rows sit right at the edge.
#[derive(Debug, Clone, Copy)]
struct EdgePhysics {
    full: f64,
    threshold: f64,
}

impl EdgePhysics {
    fn floor(&self) -> f64 {
        self.threshold - 1e-9
    }
}

fn ulps(x: f64, n: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + n) as u64)
}

impl ChargePhysics for EdgePhysics {
    fn after_refresh(&self, kind: RefreshLatency, start: f64) -> f64 {
        match kind {
            RefreshLatency::Full => self.full,
            RefreshLatency::Partial => {
                let pick = start.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58;
                let n = (pick % 9) as i64 - 4;
                if pick & 32 == 0 {
                    ulps(self.floor(), n)
                } else {
                    ulps(self.floor() * (1.0 + 1e-6), n)
                }
            }
        }
    }

    fn full_level(&self) -> f64 {
        self.full
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// A small deterministic generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 42) as f64
    }
}

/// The unit under test beside its spec.
trait Sensor: SimObserver {
    fn charge_of(&self, row: u32) -> f64;
    fn scrub(&mut self, cycle: u64) -> u32;
    /// Checker violations so far, as the spec keeps them.
    fn violations(&self) -> Vec<(u32, u64, u64)>;
    fn violation_count(&self) -> usize;
    /// Guard counters and the degradations queued since the last call.
    fn guard_verdicts(&mut self) -> (u64, u64, Vec<u32>);
}

impl<C: ChargePhysics> Sensor for IntegrityChecker<C> {
    fn charge_of(&self, row: u32) -> f64 {
        IntegrityChecker::charge_of(self, row)
    }

    fn scrub(&mut self, _cycle: u64) -> u32 {
        unreachable!("the checker has no scrub")
    }

    fn violations(&self) -> Vec<(u32, u64, u64)> {
        IntegrityChecker::violations(self)
            .iter()
            .map(|v| (v.row, v.cycle, v.charge.to_bits()))
            .collect()
    }

    fn violation_count(&self) -> usize {
        IntegrityChecker::violations(self).len()
    }

    fn guard_verdicts(&mut self) -> (u64, u64, Vec<u32>) {
        (0, 0, Vec::new())
    }
}

impl<C: ChargePhysics> Sensor for Guard<C> {
    fn charge_of(&self, row: u32) -> f64 {
        Guard::charge_of(self, row)
    }

    fn scrub(&mut self, cycle: u64) -> u32 {
        self.scrub_next(cycle)
    }

    fn violations(&self) -> Vec<(u32, u64, u64)> {
        Vec::new()
    }

    fn violation_count(&self) -> usize {
        0
    }

    fn guard_verdicts(&mut self) -> (u64, u64, Vec<u32>) {
        let s = self.stats();
        (s.corrected, s.uncorrected, self.take_pending_degrades())
    }
}

/// What one random sequence exercised.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    activations: u64,
    /// Activations that found the row below the floor.
    flagged: u64,
    /// Activations at zero elapsed time on a row below the floor.
    zero_elapsed_flagged: u64,
}

/// Feeds one random event sequence to `unit` and to the exact path,
/// diffing every touched row's charge after every event and the
/// verdicts along the way.
fn diff_sequence<C, S>(
    seed: u64,
    events: usize,
    physics: C,
    unit: &mut S,
    margin: Option<f64>,
    retention: Vec<f64>,
) -> Tally
where
    C: ChargePhysics + Clone,
    S: Sensor,
{
    let mut rng = Lcg(seed);
    let mut exact = ExactPath::new(physics, retention, margin);
    let rows = exact.retention_ms.len() as u32;
    let floor = exact.physics.threshold() - 1e-9;
    let mut now = 0u64;
    let mut tally = Tally::default();
    for i in 0..events {
        let row = rng.below(u64::from(rows)) as u32;
        let r = row as usize;
        let last = exact.last_cycle[r];
        let draw = rng.below(100);
        // Pick the event's cycle: mostly forward in time, sometimes at
        // the row's last event or around its threshold crossing (and
        // the crossing of a 1e-6 band above it), rarely in the past.
        let cycle = match rng.below(10) {
            0 => last,
            1 => last + 1,
            2 | 3 => {
                let level = if rng.below(2) == 0 {
                    floor
                } else {
                    floor * (1.0 + 1e-6)
                };
                let at = exact.crossing(exact.charge[r], level, exact.retention_ms[r]);
                last + at.unwrap_or(0) + rng.below(5) - 2.min(at.unwrap_or(0))
            }
            4 => now.saturating_sub(rng.below(1000)),
            _ => {
                let span = (exact.retention_ms[r] * 1.3 * 1e6) as u64;
                now + rng.below(span / 8)
            }
        };
        now = now.max(cycle);
        let q_before = exact.charge[r];
        match draw {
            0..=69 => {
                tally.activations += 1;
                let q = exact.leakage.charge_after(
                    q_before,
                    exact.timing.cycles_to_ms(cycle.saturating_sub(last)),
                    exact.retention_ms[r],
                );
                if q < floor {
                    tally.flagged += 1;
                    if cycle <= last {
                        tally.zero_elapsed_flagged += 1;
                    }
                }
                exact.activate(row, cycle);
                unit.on_activate(row, cycle);
            }
            70..=84 => {
                let kind = if rng.below(3) == 0 {
                    RefreshLatency::Full
                } else {
                    RefreshLatency::Partial
                };
                exact.refresh(row, kind, cycle);
                unit.on_refresh(row, kind, cycle);
            }
            85..=92 => {
                let retention_ms = 20.0 + 380.0 * rng.unit();
                exact.retention_change(row, retention_ms, cycle);
                unit.on_retention_change(row, retention_ms, cycle);
            }
            _ if margin.is_some() => {
                let scrubbed = exact.scrub(cycle);
                assert_eq!(unit.scrub(cycle), scrubbed, "seed {seed} event {i}");
            }
            _ => {
                exact.activate(row, cycle);
                unit.on_activate(row, cycle);
                tally.activations += 1;
            }
        }
        for row in 0..rows {
            assert_eq!(
                unit.charge_of(row).to_bits(),
                exact.charge[row as usize].to_bits(),
                "seed {seed} event {i}: row {row} charge"
            );
        }
        if margin.is_some() {
            let verdicts = unit.guard_verdicts();
            assert_eq!(
                verdicts,
                (
                    exact.corrected,
                    exact.uncorrected,
                    std::mem::take(&mut exact.pending)
                ),
                "seed {seed} event {i}: guard verdicts"
            );
        } else {
            assert_eq!(
                unit.violation_count(),
                exact.violations.len(),
                "seed {seed} event {i}: violation count"
            );
        }
    }
    assert_eq!(
        unit.violations(),
        exact.violations,
        "seed {seed}: violations"
    );
    tally
}

/// Random retention per row: short enough that rows cross the
/// threshold between events.
fn random_retention(rng: &mut Lcg) -> Vec<f64> {
    let rows = 1 + rng.below(8) as usize;
    (0..rows).map(|_| 20.0 + 380.0 * rng.unit()).collect()
}

/// Runs seeds `seeds` through the checker and the guard under three
/// physics, returning the summed tallies of the checker and the guard.
fn diff_seeds(seeds: std::ops::Range<u64>, events: usize) -> (Tally, Tally) {
    let timing = TimingParams::paper_default();
    let model = ModelPhysics::n90();
    let mut sums = (Tally::default(), Tally::default());
    for seed in seeds {
        let mut rng = Lcg(seed ^ 0xc0ff_ee00);
        let retention = random_retention(&mut rng);
        let margin = 0.005 + 0.1 * rng.unit();
        let config = GuardConfig {
            margin,
            scrub_interval_ms: 0.0,
        };
        let add = |sum: &mut Tally, t: Tally| {
            sum.activations += t.activations;
            sum.flagged += t.flagged;
            sum.zero_elapsed_flagged += t.zero_elapsed_flagged;
        };
        macro_rules! both {
            ($physics:expr) => {{
                let physics = $physics;
                let mut checker = IntegrityChecker::new(physics.clone(), timing, retention.clone());
                let t = diff_sequence(
                    seed,
                    events,
                    physics.clone(),
                    &mut checker,
                    None,
                    retention.clone(),
                );
                add(&mut sums.0, t);
                let mut guard = Guard::new(physics.clone(), timing, retention.clone(), config);
                let t = diff_sequence(
                    seed,
                    events,
                    physics,
                    &mut guard,
                    Some(margin),
                    retention.clone(),
                );
                add(&mut sums.1, t);
            }};
        }
        match seed % 3 {
            0 => both!(linear()),
            1 => both!(model.clone()),
            _ => both!(EdgePhysics {
                full: 0.95,
                threshold: 0.62,
            }),
        }
    }
    sums
}

#[test]
fn checker_and_guard_match_the_exact_path_on_random_sequences() {
    let (checker, guard) = diff_seeds(0..24, 4_000);
    for (who, t) in [("checker", checker), ("guard", guard)] {
        assert!(t.flagged > 100, "{who}: too few flagged activations: {t:?}");
        assert!(
            t.zero_elapsed_flagged > 0,
            "{who}: no zero-elapsed sub-threshold activation: {t:?}"
        );
        assert!(
            t.activations > 2 * t.flagged,
            "{who}: too few safe activations: {t:?}"
        );
    }
}

#[test]
fn a_sub_threshold_row_activated_in_the_same_cycle_is_flagged() {
    let physics = EdgePhysics {
        full: 0.95,
        threshold: 0.62,
    };
    let timing = TimingParams::paper_default();
    let t = timing.ms_to_cycles(10.0);
    // Partial refreshes land the row within a few ULPs of the floor;
    // an activation at the refresh's own cycle senses exactly that
    // charge, and one a cycle later a hair less.
    let mut flagged = 0;
    for start in 0..64u64 {
        let mut checker = IntegrityChecker::new(physics, timing, vec![100.0]);
        let mut exact = ExactPath::new(physics, vec![100.0], None);
        let at = t + start * 977;
        for cycle in [at, at, at + 1] {
            // Land the row at an edge charge, then activate it.
            checker.on_refresh(0, RefreshLatency::Partial, cycle);
            exact.refresh(0, RefreshLatency::Partial, cycle);
            checker.on_activate(0, cycle);
            exact.activate(0, cycle);
        }
        let got: Vec<_> = checker
            .violations()
            .iter()
            .map(|v| (v.row, v.cycle, v.charge.to_bits()))
            .collect();
        assert_eq!(got, exact.violations, "start {start}");
        flagged += got.len();
    }
    assert!(flagged > 0, "no edge charge fell below the floor");
}

#[test]
#[ignore = "about 1e7 activations on each of the checker and the guard; run in release"]
fn checker_and_guard_match_the_exact_path_exhaustively() {
    let (checker, guard) = diff_seeds(1_000..1_512, 28_000);
    for (who, t) in [("checker", checker), ("guard", guard)] {
        assert!(t.activations >= 10_000_000, "{who}: {t:?}");
        assert!(t.zero_elapsed_flagged > 0, "{who}: {t:?}");
    }
}
