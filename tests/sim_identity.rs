//! Bit-identity guard for the single-bank simulator (`dram::sim`).
//!
//! Figure 4 and the daemon's `sim` and `faulted` jobs run
//! `vrl_dram_sim::Simulator`, and their results carry its statistics.
//! The constants below are FNV-1a 64 hashes over one case's run:
//! `serde_json::to_string(&SimStats)`, every observer callback in order
//! (kind, row, cycle), the snapshot bytes saved halfway through, and the
//! fault injector's counters when one is installed. They were recorded
//! from the simulator that drained its refresh queue before every
//! access. A speed change to the access loop must leave them passing
//! unedited; a change meant to alter results re-records them and says
//! so.
//!
//! Each case runs three ways that must agree: unsegmented, in spans of
//! 999 cycles (a span holds a handful of records or none) and in spans of ~1 ms with a
//! save/restore into a fresh simulator at the midpoint. The cases cover
//! the configurations whose refresh drain differs from the plain bank:
//! postponement slack (the `ablation_postpone` binary), burst refresh
//! (all deadlines at cycle 0), closed page, a trace generated for an
//! 8192-row bank fed into a 1000-row simulator (rows folded by `%`), and
//! overflow faults that delay and drop refresh commands.

use vrl_dram::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl_dram::{Engine, Outcome};
use vrl_dram_sim::fault::{FaultConfig, FaultInjector, OverflowFault};
use vrl_dram_sim::policy::{PolicyState, RefreshPolicy};
use vrl_dram_sim::sim::{NullObserver, PagePolicy, SimConfig, SimObserver, Simulator};
use vrl_dram_sim::{RefreshLatency, SimStats, TimingParams};
use vrl_snap::{Decoder, Encoder};
use vrl_trace::gen::{Workload, WorkloadSpec};
use vrl_trace::TraceRecord;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];

/// The bank of the configuration cases: small enough for a debug build.
const ROWS: u32 = 1024;

/// Simulated time per case.
const DURATION_MS: f64 = 16.0;

/// Span lengths of the segmented runs, in cycles.
const SHORT_SPAN: u64 = 999;
const LONG_SPAN: u64 = 1_000_003;

/// `(case, benchmark, policy, fnv1a64)` at seed 42.
const EXPECTED: &[(&str, &str, &str, u64)] = &[
    ("plain", "canneal", "raidr", 0xb69b191566fe6ee4),
    ("plain", "canneal", "vrl", 0xee6cf0c07dfec753),
    ("plain", "canneal", "vrl-access", 0xec1a78111509ee0a),
    ("plain", "swaptions", "raidr", 0xcea018772c15dfe1),
    ("plain", "swaptions", "vrl", 0x564c0e2fa3541f03),
    ("plain", "swaptions", "vrl-access", 0x3b14fe33e241e59a),
    ("postpone-8us", "canneal", "raidr", 0xf6b28e4c2e231feb),
    ("postpone-8us", "canneal", "vrl", 0xae558254cbd17b0a),
    ("postpone-8us", "canneal", "vrl-access", 0xb0a7fb0434c65453),
    ("postpone-64us", "bgsave", "raidr", 0x918d062a98e3f6cf),
    ("postpone-64us", "bgsave", "vrl", 0xe8bb16cd44728fda),
    ("postpone-64us", "bgsave", "vrl-access", 0xeb0d8f7cad676923),
    ("postpone-64us", "ferret", "raidr", 0xdc7b1dc6ee1af92d),
    ("postpone-64us", "ferret", "vrl", 0x38e310163364c7ac),
    ("postpone-64us", "ferret", "vrl-access", 0x22b6e14efe131108),
    ("burst", "ferret", "raidr", 0x0c2594999cfe1ad0),
    ("burst", "ferret", "vrl", 0x2df47f3cc44b9fa2),
    ("burst", "ferret", "vrl-access", 0xc3247468d3138945),
    (
        "burst-postpone",
        "streamcluster",
        "raidr",
        0x47c37efb471b88c7,
    ),
    ("burst-postpone", "streamcluster", "vrl", 0xc176854e6ca85080),
    (
        "burst-postpone",
        "streamcluster",
        "vrl-access",
        0x45e40a2bcaa5afaf,
    ),
    ("closed", "ferret", "raidr", 0xe0a5eb44a108a8e3),
    ("closed", "ferret", "vrl", 0x11383dcf954275d7),
    ("closed", "ferret", "vrl-access", 0x27646c96ca942c7b),
    ("closed", "bgsave", "raidr", 0xdab2b1d9c2f68be2),
    ("closed", "bgsave", "vrl", 0x18b16b254d59d131),
    ("closed", "bgsave", "vrl-access", 0x165ef275e464f7e8),
    (
        "folded-8192-into-1000",
        "canneal",
        "raidr",
        0x5503e711ca0ab276,
    ),
    (
        "folded-8192-into-1000",
        "canneal",
        "vrl",
        0x26bae09e6c578f16,
    ),
    (
        "folded-8192-into-1000",
        "canneal",
        "vrl-access",
        0x5512dc8c4a7ce3b8,
    ),
    (
        "folded-8192-into-1000",
        "bgsave",
        "raidr",
        0x73976001e4e78768,
    ),
    ("folded-8192-into-1000", "bgsave", "vrl", 0x6d3b6f6b21ab8903),
    (
        "folded-8192-into-1000",
        "bgsave",
        "vrl-access",
        0x3ee3737d43863461,
    ),
    ("overflow-faults", "canneal", "raidr", 0x0e459404ceedd561),
    ("overflow-faults", "canneal", "vrl", 0x956c6e8362a91615),
    (
        "overflow-faults",
        "canneal",
        "vrl-access",
        0xa70caeb7e131dc3a,
    ),
    (
        "overflow-faults-postpone",
        "x264",
        "raidr",
        0x487f4b8abfce5d47,
    ),
    (
        "overflow-faults-postpone",
        "x264",
        "vrl",
        0xe5b5cc257297c3e2,
    ),
    (
        "overflow-faults-postpone",
        "x264",
        "vrl-access",
        0x553dfec653ac53b8,
    ),
    ("faulted-front-end", "canneal", "raidr", 0x8ed5d39efe887654),
    ("faulted-front-end", "canneal", "vrl", 0xc4b2cba8245afeed),
    (
        "faulted-front-end",
        "canneal",
        "vrl-access",
        0xc4b2cba8245afeed,
    ),
    ("faulted-front-end", "bgsave", "raidr", 0xf374b90b1b1e6988),
    ("faulted-front-end", "bgsave", "vrl", 0xd35f353199fafbdd),
    (
        "faulted-front-end",
        "bgsave",
        "vrl-access",
        0xd35f353199fafbdd,
    ),
];

/// `(seed, benchmark, policy, fnv1a64)` of the Figure 4 cells at 8192
/// rows / 256 ms: `Experiment::run(&Engine::Sim, …)` over the streamed
/// trace, as fig4-stream runs them.
const EXPECTED_FIG4: &[(u64, &str, &str, u64)] = &[
    (42, "blackscholes", "raidr", 0x643168006645153d),
    (42, "blackscholes", "vrl", 0x5482b0f9559c39ea),
    (42, "blackscholes", "vrl-access", 0x5482b0f9559c39ea),
    (42, "bodytrack", "raidr", 0x9d9e5a094d4f2cfb),
    (42, "bodytrack", "vrl", 0x2f555a7d496f082a),
    (42, "bodytrack", "vrl-access", 0x2f555a7d496f082a),
    (42, "canneal", "raidr", 0x7377f2bc4e6135ba),
    (42, "canneal", "vrl", 0x8e38eb486842880c),
    (42, "canneal", "vrl-access", 0x8e38eb486842880c),
    (42, "dedup", "raidr", 0x990872345a62894f),
    (42, "dedup", "vrl", 0xa31f2b89588c9bf1),
    (42, "dedup", "vrl-access", 0xa31f2b89588c9bf1),
    (42, "facesim", "raidr", 0x87bc134e7bdc8d1f),
    (42, "facesim", "vrl", 0x133796ccab33d392),
    (42, "facesim", "vrl-access", 0x133796ccab33d392),
    (42, "ferret", "raidr", 0x57c8c909799c870c),
    (42, "ferret", "vrl", 0xd67004e8f262dae2),
    (42, "ferret", "vrl-access", 0xd67004e8f262dae2),
    (42, "fluidanimate", "raidr", 0xbbc9bf7f92a50f68),
    (42, "fluidanimate", "vrl", 0x3e7c5ecfc8c7823f),
    (42, "fluidanimate", "vrl-access", 0x3e7c5ecfc8c7823f),
    (42, "freqmine", "raidr", 0x8775877695909991),
    (42, "freqmine", "vrl", 0x7bfe92d7aef60c06),
    (42, "freqmine", "vrl-access", 0x7bfe92d7aef60c06),
    (42, "raytrace", "raidr", 0x84e3549ae0299a82),
    (42, "raytrace", "vrl", 0xd0b33237dff7aa32),
    (42, "raytrace", "vrl-access", 0xd0b33237dff7aa32),
    (42, "streamcluster", "raidr", 0x5edc54f6ab90dfb1),
    (42, "streamcluster", "vrl", 0xb593f9ebcb746507),
    (42, "streamcluster", "vrl-access", 0xb593f9ebcb746507),
    (42, "swaptions", "raidr", 0x4f4275bae935c089),
    (42, "swaptions", "vrl", 0xb1ec1b5590d3abaa),
    (42, "swaptions", "vrl-access", 0xb1ec1b5590d3abaa),
    (42, "vips", "raidr", 0xc1c6ef5e0711867c),
    (42, "vips", "vrl", 0x001a3c3a126cf58a),
    (42, "vips", "vrl-access", 0x001a3c3a126cf58a),
    (42, "x264", "raidr", 0x49bcc2353a49fbfa),
    (42, "x264", "vrl", 0x1bd85eeccb8ac56d),
    (42, "x264", "vrl-access", 0x1bd85eeccb8ac56d),
    (42, "bgsave", "raidr", 0xcbc215dfc034fa37),
    (42, "bgsave", "vrl", 0xe9c051b43be3a910),
    (42, "bgsave", "vrl-access", 0xe9c051b43be3a910),
    (90210, "blackscholes", "raidr", 0xa652565d91edc6a3),
    (90210, "blackscholes", "vrl", 0xc72020bd0f73fc0c),
    (90210, "blackscholes", "vrl-access", 0xc72020bd0f73fc0c),
    (90210, "bodytrack", "raidr", 0x01f731912cf53f3f),
    (90210, "bodytrack", "vrl", 0xe0df7a64ee4ca454),
    (90210, "bodytrack", "vrl-access", 0xe0df7a64ee4ca454),
    (90210, "canneal", "raidr", 0xfbca98ff06be3b86),
    (90210, "canneal", "vrl", 0x87de99ee0a3fcdfd),
    (90210, "canneal", "vrl-access", 0x87de99ee0a3fcdfd),
    (90210, "dedup", "raidr", 0x342de22fef14c70e),
    (90210, "dedup", "vrl", 0x356fc3dad08683d8),
    (90210, "dedup", "vrl-access", 0x356fc3dad08683d8),
    (90210, "facesim", "raidr", 0x077ce11c2dddfd56),
    (90210, "facesim", "vrl", 0x022c6eae75e6a085),
    (90210, "facesim", "vrl-access", 0x022c6eae75e6a085),
    (90210, "ferret", "raidr", 0x921840ff2b9afd7e),
    (90210, "ferret", "vrl", 0xb2140e82375614bc),
    (90210, "ferret", "vrl-access", 0xb2140e82375614bc),
    (90210, "fluidanimate", "raidr", 0xafd6959a5890a982),
    (90210, "fluidanimate", "vrl", 0xdf2e880474e65d2c),
    (90210, "fluidanimate", "vrl-access", 0xdf2e880474e65d2c),
    (90210, "freqmine", "raidr", 0x68ef87442e5fe9d4),
    (90210, "freqmine", "vrl", 0x827d311176942d19),
    (90210, "freqmine", "vrl-access", 0x827d311176942d19),
    (90210, "raytrace", "raidr", 0x6b5b036e30f39b2d),
    (90210, "raytrace", "vrl", 0x11e9fb217083f1a5),
    (90210, "raytrace", "vrl-access", 0x11e9fb217083f1a5),
    (90210, "streamcluster", "raidr", 0x984c46916ca9271e),
    (90210, "streamcluster", "vrl", 0xf8d2f9e947e717c6),
    (90210, "streamcluster", "vrl-access", 0xf8d2f9e947e717c6),
    (90210, "swaptions", "raidr", 0x6f3eb329303abbaa),
    (90210, "swaptions", "vrl", 0x21d50f195c615bb3),
    (90210, "swaptions", "vrl-access", 0x21d50f195c615bb3),
    (90210, "vips", "raidr", 0x5504e2f3192e43f3),
    (90210, "vips", "vrl", 0xdaeadc0b799e16a4),
    (90210, "vips", "vrl-access", 0xdaeadc0b799e16a4),
    (90210, "x264", "raidr", 0x0027094ff24ebdcd),
    (90210, "x264", "vrl", 0x833a7490ad5f9f15),
    (90210, "x264", "vrl-access", 0x833a7490ad5f9f15),
    (90210, "bgsave", "raidr", 0xc18f735b6d02041e),
    (90210, "bgsave", "vrl", 0xbfe60af915ca7d54),
    (90210, "bgsave", "vrl-access", 0xbfe60af915ca7d54),
];

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn stats_hash(stats: &SimStats) -> u64 {
    fnv1a64(
        FNV_OFFSET,
        serde_json::to_string(stats)
            .expect("serializable")
            .as_bytes(),
    )
}

/// Folds every callback, in order, into one hash.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HashingObserver(u64);

impl Default for HashingObserver {
    fn default() -> Self {
        HashingObserver(FNV_OFFSET)
    }
}

impl HashingObserver {
    fn fold(&mut self, kind: u8, row: u32, cycle: u64) {
        self.0 = fnv1a64(self.0, &[kind]);
        self.0 = fnv1a64(self.0, &row.to_le_bytes());
        self.0 = fnv1a64(self.0, &cycle.to_le_bytes());
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
        self.fold(2, row, cycle);
    }

    fn on_retention_change(&mut self, row: u32, retention_ms: f64, cycle: u64) {
        self.fold(3, row, cycle);
        self.0 = fnv1a64(self.0, &retention_ms.to_bits().to_le_bytes());
    }

    fn on_refresh_postponed(&mut self, row: u32, cycle: u64) {
        self.fold(4, row, cycle);
    }

    fn on_refresh_fault(&mut self, row: u32, dropped: bool, cycle: u64) {
        self.fold(5 + u8::from(dropped), row, cycle);
    }
}

/// One simulator configuration over one trace.
struct Case<'a> {
    name: &'static str,
    experiment: &'a Experiment,
    config: SimConfig,
    benchmark: &'static str,
    /// Rows the trace was generated for.
    trace_rows: u32,
    faults: Option<FaultConfig>,
}

impl Case<'_> {
    fn trace(&self) -> impl Iterator<Item = TraceRecord> {
        let spec = WorkloadSpec::parsec(self.benchmark).expect("benchmark");
        Workload::new(spec, self.trace_rows, self.experiment.config().seed).records(DURATION_MS)
    }

    fn simulator<P: RefreshPolicy>(&self, policy: P) -> Simulator<P> {
        let mut sim = Simulator::new(self.config, policy);
        if let Some(faults) = self.faults {
            let profiled = self.experiment.profiled_retention();
            let timing = TimingParams::paper_default();
            sim.set_fault_injector(FaultInjector::new(faults, &profiled, timing));
        }
        sim
    }

    /// The run's hash, after checking that the case exercised what it
    /// names.
    fn hash(&self, policy: PolicyKind) -> u64 {
        let (hash, stats) = self.run(policy);
        let what = format!(
            "{}/{}/{}: {stats:?}",
            self.name,
            self.benchmark,
            policy.name()
        );
        if self.config.postpone_slack > 0 {
            assert!(stats.postponed_refreshes > 0, "nothing postponed in {what}");
        }
        if self.faults.is_some_and(|f| f.overflow.is_some()) {
            assert!(stats.delayed_refreshes > 0, "nothing delayed in {what}");
            assert!(stats.dropped_refreshes > 0, "nothing dropped in {what}");
        }
        if self.config.page_policy == PagePolicy::Closed {
            assert_eq!(stats.row_hits, 0, "row hits under a closed page in {what}");
        }
        if self.trace_rows > self.config.rows {
            let folded = self.trace().filter(|r| r.row >= self.config.rows).count();
            assert!(folded > 0, "no record folded in {what}");
        }
        hash
    }

    fn run(&self, policy: PolicyKind) -> (u64, SimStats) {
        let plan = self.experiment.plan();
        match policy {
            PolicyKind::Raidr => self.hash_with(|| plan.raidr()),
            PolicyKind::Vrl => self.hash_with(|| plan.vrl()),
            PolicyKind::VrlAccess => self.hash_with(|| plan.vrl_access()),
            PolicyKind::Auto => unreachable!("not a Figure 4 column"),
        }
    }

    /// Runs the case three ways, checks they agree, and hashes the run.
    fn hash_with<P, F>(&self, policy: F) -> (u64, SimStats)
    where
        P: RefreshPolicy + PolicyState,
        F: Fn() -> P,
    {
        let end = self.config.timing.ms_to_cycles(DURATION_MS);
        let whole = {
            let mut sim = self.simulator(policy());
            let mut observer = HashingObserver::default();
            let stats = sim.run_observed(self.trace(), DURATION_MS, &mut observer);
            (stats, observer, fault_stats(&sim))
        };

        let short = {
            let mut sim = self.simulator(policy());
            let mut observer = HashingObserver::default();
            let mut trace = self.trace().peekable();
            let mut stop = SHORT_SPAN;
            while stop < end {
                sim.run_span_observed(&mut trace, stop, &mut observer);
                stop += SHORT_SPAN;
            }
            sim.run_span_observed(&mut trace, end, &mut observer);
            let stats = sim.finish_observed(end, &mut observer);
            (stats, observer, fault_stats(&sim))
        };
        assert_eq!(short, whole, "{}: short spans diverged", self.name);

        // Long spans, handing over to a fresh simulator at the midpoint.
        let mut sim = self.simulator(policy());
        let mut observer = HashingObserver::default();
        let mut trace = self.trace().peekable();
        let mut stop = LONG_SPAN;
        let mut snapshot = None;
        while stop < end {
            sim.run_span_observed(&mut trace, stop, &mut observer);
            if snapshot.is_none() && stop >= end / 2 {
                let mut enc = Encoder::new();
                sim.save_state(&mut enc);
                let bytes = enc.into_bytes();
                sim = self.simulator(policy());
                let mut dec = Decoder::new(&bytes);
                sim.restore_state(&mut dec).expect("own snapshot");
                dec.finish().expect("snapshot fully read");
                snapshot = Some(bytes);
            }
            stop += LONG_SPAN;
        }
        sim.run_span_observed(&mut trace, end, &mut observer);
        let stats = sim.finish_observed(end, &mut observer);
        let long = (stats, observer, fault_stats(&sim));
        assert_eq!(long, whole, "{}: resumed long spans diverged", self.name);

        let (stats, observer, faults) = whole;
        let mut hash = fnv1a64(stats_hash(&stats), &observer.0.to_le_bytes());
        hash = fnv1a64(hash, &snapshot.expect("a midpoint snapshot"));
        if let Some(faults) = faults {
            hash = fnv1a64(hash, faults.as_bytes());
        }
        (hash, stats)
    }
}

fn fault_stats<P: RefreshPolicy>(sim: &Simulator<P>) -> Option<String> {
    sim.fault_injector()
        .map(|inj| serde_json::to_string(&inj.stats()).expect("serializable"))
}

/// Overflow faults frequent enough to delay and drop hundreds of
/// commands, on top of the default optimism and VRT scenario.
fn overflow_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        overflow: Some(OverflowFault {
            drop_probability: 0.02,
            delay_probability: 0.2,
            delay_cycles: 40_000,
        }),
        ..FaultConfig::default_scenario(seed)
    }
}

fn experiment(rows: u32, seed: u64, duration_ms: f64) -> Experiment {
    Experiment::new(ExperimentConfig {
        rows,
        seed,
        duration_ms,
        ..Default::default()
    })
}

/// Every case at seed 42: `(case, benchmark, policy, hash)` in order.
fn cases() -> Vec<(&'static str, &'static str, &'static str, u64)> {
    let bank = experiment(ROWS, 42, DURATION_MS);
    let folded = experiment(1000, 42, DURATION_MS);
    let plain = SimConfig::with_rows(ROWS);
    let case = |name, config, benchmark| Case {
        name,
        experiment: &bank,
        config,
        benchmark,
        trace_rows: ROWS,
        faults: None,
    };
    let cases = [
        case("plain", plain, "canneal"),
        case("plain", plain, "swaptions"),
        case("postpone-8us", plain.with_postpone_slack(8_000), "canneal"),
        case("postpone-64us", plain.with_postpone_slack(64_000), "bgsave"),
        case("postpone-64us", plain.with_postpone_slack(64_000), "ferret"),
        case("burst", plain.with_burst_refresh(), "ferret"),
        case(
            "burst-postpone",
            plain.with_burst_refresh().with_postpone_slack(64_000),
            "streamcluster",
        ),
        case(
            "closed",
            plain.with_page_policy(PagePolicy::Closed),
            "ferret",
        ),
        case(
            "closed",
            plain.with_page_policy(PagePolicy::Closed),
            "bgsave",
        ),
        Case {
            trace_rows: 8192,
            experiment: &folded,
            ..case(
                "folded-8192-into-1000",
                SimConfig::with_rows(1000),
                "canneal",
            )
        },
        Case {
            trace_rows: 8192,
            experiment: &folded,
            ..case(
                "folded-8192-into-1000",
                SimConfig::with_rows(1000),
                "bgsave",
            )
        },
        Case {
            faults: Some(overflow_faults(7)),
            ..case("overflow-faults", plain, "canneal")
        },
        Case {
            faults: Some(overflow_faults(11)),
            ..case(
                "overflow-faults-postpone",
                plain.with_postpone_slack(64_000),
                "x264",
            )
        },
    ];
    let mut out = Vec::new();
    for case in &cases {
        for policy in POLICIES {
            out.push((case.name, case.benchmark, policy.name(), case.hash(policy)));
        }
    }
    out
}

/// The faulted front end as the daemon runs it: the injector with
/// overflow faults and the integrity checker watching.
fn faulted_front_end() -> Vec<(&'static str, &'static str, &'static str, u64)> {
    let bank = experiment(ROWS, 42, DURATION_MS);
    let engine = Engine::Faulted {
        faults: overflow_faults(3),
        guard: None,
    };
    let mut out = Vec::new();
    for benchmark in ["canneal", "bgsave"] {
        for policy in POLICIES {
            let trace = bank.trace(benchmark).expect("benchmark");
            let outcome = bank
                .run(&engine, policy, trace, 0, &mut NullObserver, |_| {})
                .expect("faulted run");
            let Outcome::Faulted(outcome) = outcome else {
                unreachable!("a faulted run reports a faulted outcome")
            };
            let json = serde_json::to_string(&outcome).expect("serializable");
            let hash = fnv1a64(FNV_OFFSET, json.as_bytes());
            out.push(("faulted-front-end", benchmark, policy.name(), hash));
        }
    }
    out
}

/// Renders rows in the constant's own syntax, so a deliberate
/// re-recording is a paste.
fn render(rows: &[String]) -> String {
    rows.iter().map(|r| format!("    {r},\n")).collect()
}

#[test]
fn simulator_runs_match_the_recorded_hashes() {
    let mut rows = cases();
    rows.extend(faulted_front_end());
    let actual: Vec<String> = rows
        .into_iter()
        .map(|(case, bench, policy, hash)| {
            format!("(\"{case}\", \"{bench}\", \"{policy}\", 0x{hash:016x})")
        })
        .collect();
    let expected: Vec<String> = EXPECTED
        .iter()
        .map(|(case, bench, policy, hash)| {
            format!("(\"{case}\", \"{bench}\", \"{policy}\", 0x{hash:016x})")
        })
        .collect();
    assert!(
        actual == expected,
        "simulator results changed; actual:\n{}",
        render(&actual)
    );
}

#[test]
#[ignore = "the Figure 4 matrix at 8192 rows / 256 ms at two seeds; run in release"]
fn figure4_cells_match_the_recorded_hashes_at_full_geometry() {
    let mut actual = Vec::new();
    for seed in [42u64, 90210] {
        let experiment = experiment(8192, seed, 256.0);
        for benchmark in WorkloadSpec::BENCHMARKS {
            for policy in POLICIES {
                let trace = experiment.trace(benchmark).expect("benchmark");
                let outcome = experiment
                    .run(&Engine::Sim, policy, trace, 0, &mut NullObserver, |_| {})
                    .expect("simulator run");
                let Outcome::Sim(stats) = outcome else {
                    unreachable!("a simulator run reports simulator stats")
                };
                actual.push(format!(
                    "({seed}, \"{benchmark}\", \"{}\", 0x{:016x})",
                    policy.name(),
                    stats_hash(&stats)
                ));
            }
        }
    }
    let expected: Vec<String> = EXPECTED_FIG4
        .iter()
        .map(|(seed, bench, policy, hash)| {
            format!("({seed}, \"{bench}\", \"{policy}\", 0x{hash:016x})")
        })
        .collect();
    assert!(
        actual == expected,
        "Figure 4 cells changed; actual:\n{}",
        render(&actual)
    );
}
