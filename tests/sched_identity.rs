//! Bit-identity guard for the multi-bank command scheduler.
//!
//! serve-cold's `sched` (one channel, 8 banks) and `dimm` (2 channels ×
//! 2 ranks × 4 banks) front ends run `vrl_sched::Scheduler`, and their
//! result frames carry its statistics. A `dimm` row runs twice: as the
//! daemon runs it, one whole-DIMM scheduler through `Experiment::run`,
//! and as one shard per channel, merged; both must hit its hash. The
//! constants below are FNV-1a 64 hashes of
//! `serde_json::to_string(&SchedStats)` for serve-cold's seven
//! benchmarks × RAIDR/VRL/VRL-Access at 512 rows, recorded from the
//! scheduler whose every decision scanned the channel's banks. A speed
//! change to the scheduling loop must leave them passing unedited; a
//! change meant to alter decisions re-records them and says so.
//!
//! serve-cold's traces never queue more than a few requests, so one
//! more case drives a whole 2 × 2 × 4 DIMM with dense bursts: it fills
//! the queue, reorders picks, stalls, and halts mid-burst with records
//! parked for the other channel. Its statistics and the bytes of the
//! halted snapshot are pinned the same way, recorded on the loop that
//! moved every record through a per-lane buffer queue.
//!
//! The last test is a fast slice of the scheduler crate's
//! `controller_equivalence` suite: the struct-of-arrays engine against
//! the per-bank-heap `ReferenceScheduler` on one full-DIMM geometry,
//! with refresh-access parallelization on and off.

use vrl_dram::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl_dram::{Engine, Outcome};
use vrl_dram_sim::policy::{AutoRefresh, RefreshPolicy, VrlAccess};
use vrl_dram_sim::sim::NullObserver;
use vrl_retention::binning::BinningTable;
use vrl_retention::profile::BankProfile;
use vrl_sched::{ReferenceScheduler, SchedConfig, SchedCursor, SchedStats, Scheduler};
use vrl_trace::{Op, TraceRecord};

/// serve-cold's benchmarks, from tiny to full-memory footprints.
const BENCHMARKS: [&str; 7] = [
    "blackscholes",
    "swaptions",
    "raytrace",
    "facesim",
    "ferret",
    "canneal",
    "bgsave",
];

const POLICIES: [PolicyKind; 3] = [PolicyKind::Raidr, PolicyKind::Vrl, PolicyKind::VrlAccess];

/// serve-cold's bank.
const ROWS: u32 = 512;

/// The daemon's default progress cadence, so every run pauses and
/// resumes its span loop the way a served job does.
const SPAN_CYCLES: u64 = 2_000_000;

/// `(front end, benchmark, policy, fnv1a64)` at seed 42 over 8 ms.
const EXPECTED_8MS: &[(&str, &str, &str, u64)] = &[
    ("sched", "blackscholes", "raidr", 0x90f04347d51c3e92),
    ("dimm", "blackscholes", "raidr", 0xe3a177203a0b46fa),
    ("sched", "blackscholes", "vrl", 0x8ee7b589965db3c9),
    ("dimm", "blackscholes", "vrl", 0x8aa15b58178e00e1),
    ("sched", "blackscholes", "vrl-access", 0x8ee7b589965db3c9),
    ("dimm", "blackscholes", "vrl-access", 0x8aa15b58178e00e1),
    ("sched", "swaptions", "raidr", 0x08654f9ab2a3c9e0),
    ("dimm", "swaptions", "raidr", 0x0969e12164cc4f58),
    ("sched", "swaptions", "vrl", 0xdac23acb0fde32b9),
    ("dimm", "swaptions", "vrl", 0x93a438277052a313),
    ("sched", "swaptions", "vrl-access", 0xdac23acb0fde32b9),
    ("dimm", "swaptions", "vrl-access", 0x93a438277052a313),
    ("sched", "raytrace", "raidr", 0x147402f5eaf2eb9d),
    ("dimm", "raytrace", "raidr", 0xb72b94c9bef157ab),
    ("sched", "raytrace", "vrl", 0x7dbb4e2903d5db8e),
    ("dimm", "raytrace", "vrl", 0x1cb45c9e984eb416),
    ("sched", "raytrace", "vrl-access", 0x7dbb4e2903d5db8e),
    ("dimm", "raytrace", "vrl-access", 0x1cb45c9e984eb416),
    ("sched", "facesim", "raidr", 0x60d61e5a282d6250),
    ("dimm", "facesim", "raidr", 0x9c7fa88ed729ee3a),
    ("sched", "facesim", "vrl", 0xb0f9ed0f9b8e20f3),
    ("dimm", "facesim", "vrl", 0xa44557566d956529),
    ("sched", "facesim", "vrl-access", 0xb0f9ed0f9b8e20f3),
    ("dimm", "facesim", "vrl-access", 0xa44557566d956529),
    ("sched", "ferret", "raidr", 0x6e0a6a084e8a7e72),
    ("dimm", "ferret", "raidr", 0xfbcf12c1b358c4b9),
    ("sched", "ferret", "vrl", 0x053939606bdd35b9),
    ("dimm", "ferret", "vrl", 0x97b4fdf97ac292c6),
    ("sched", "ferret", "vrl-access", 0x053939606bdd35b9),
    ("dimm", "ferret", "vrl-access", 0x97b4fdf97ac292c6),
    ("sched", "canneal", "raidr", 0x5caa826ec9301852),
    ("dimm", "canneal", "raidr", 0xf6a13d03313533a3),
    ("sched", "canneal", "vrl", 0x4aa1463767d435a9),
    ("dimm", "canneal", "vrl", 0x61739af62b2df054),
    ("sched", "canneal", "vrl-access", 0x4aa1463767d435a9),
    ("dimm", "canneal", "vrl-access", 0x61739af62b2df054),
    ("sched", "bgsave", "raidr", 0x0c0aa5b1d10231ba),
    ("dimm", "bgsave", "raidr", 0xa5ab160c007dbd08),
    ("sched", "bgsave", "vrl", 0xf186e280cc1f4a93),
    ("dimm", "bgsave", "vrl", 0x1606c2a737cb4da1),
    ("sched", "bgsave", "vrl-access", 0xf186e280cc1f4a93),
    ("dimm", "bgsave", "vrl-access", 0x1606c2a737cb4da1),
];

/// `(seed, front end, benchmark, policy, fnv1a64)` over serve-cold's
/// full 64 ms.
const EXPECTED_64MS: &[(u64, &str, &str, &str, u64)] = &[
    (42, "sched", "blackscholes", "raidr", 0x938932211eed1b06),
    (42, "dimm", "blackscholes", "raidr", 0x910cbe0d1fa5517e),
    (42, "sched", "blackscholes", "vrl", 0x3c86bd8163e87607),
    (42, "dimm", "blackscholes", "vrl", 0x88a0ad369e1b627b),
    (
        42,
        "sched",
        "blackscholes",
        "vrl-access",
        0x3c86bd8163e87607,
    ),
    (42, "dimm", "blackscholes", "vrl-access", 0x88a0ad369e1b627b),
    (42, "sched", "swaptions", "raidr", 0xb74f9941b8a05576),
    (42, "dimm", "swaptions", "raidr", 0xa5bb4f9785953f7b),
    (42, "sched", "swaptions", "vrl", 0x48add581f601a57f),
    (42, "dimm", "swaptions", "vrl", 0x7ce12d75e19fe158),
    (42, "sched", "swaptions", "vrl-access", 0x48add581f601a57f),
    (42, "dimm", "swaptions", "vrl-access", 0x7ce12d75e19fe158),
    (42, "sched", "raytrace", "raidr", 0xbd6bad64d8507dbe),
    (42, "dimm", "raytrace", "raidr", 0x2b18417e53f9e8f5),
    (42, "sched", "raytrace", "vrl", 0x6fb4551adeedfadf),
    (42, "dimm", "raytrace", "vrl", 0x3e29b8addc28e738),
    (42, "sched", "raytrace", "vrl-access", 0x6fb4551adeedfadf),
    (42, "dimm", "raytrace", "vrl-access", 0x3e29b8addc28e738),
    (42, "sched", "facesim", "raidr", 0x43f4a4be70bf5fa4),
    (42, "dimm", "facesim", "raidr", 0x6d4fc8e2518f2bf0),
    (42, "sched", "facesim", "vrl", 0xe7a88bdcf06ffdd5),
    (42, "dimm", "facesim", "vrl", 0xccc7637c6055459f),
    (42, "sched", "facesim", "vrl-access", 0xe7a88bdcf06ffdd5),
    (42, "dimm", "facesim", "vrl-access", 0xccc7637c6055459f),
    (42, "sched", "ferret", "raidr", 0xb3013466959116ad),
    (42, "dimm", "ferret", "raidr", 0xd441984c76c4ced7),
    (42, "sched", "ferret", "vrl", 0x2c209c6684ac3944),
    (42, "dimm", "ferret", "vrl", 0x2ffaf158be179f82),
    (42, "sched", "ferret", "vrl-access", 0x2c209c6684ac3944),
    (42, "dimm", "ferret", "vrl-access", 0x2ffaf158be179f82),
    (42, "sched", "canneal", "raidr", 0x21e19c0d04f33888),
    (42, "dimm", "canneal", "raidr", 0xf3729f55117de038),
    (42, "sched", "canneal", "vrl", 0xe07e3d94a73abe48),
    (42, "dimm", "canneal", "vrl", 0x48d5b04dbd17cced),
    (42, "sched", "canneal", "vrl-access", 0xe07e3d94a73abe48),
    (42, "dimm", "canneal", "vrl-access", 0x48d5b04dbd17cced),
    (42, "sched", "bgsave", "raidr", 0x0f2c50049693022c),
    (42, "dimm", "bgsave", "raidr", 0x9069209bed4f6458),
    (42, "sched", "bgsave", "vrl", 0xaa69e2a386a8c0ed),
    (42, "dimm", "bgsave", "vrl", 0xb129960da9187791),
    (42, "sched", "bgsave", "vrl-access", 0xaa69e2a386a8c0ed),
    (42, "dimm", "bgsave", "vrl-access", 0xb129960da9187791),
    (90210, "sched", "blackscholes", "raidr", 0x97a5a42f461bf305),
    (90210, "dimm", "blackscholes", "raidr", 0x5693da97ad871045),
    (90210, "sched", "blackscholes", "vrl", 0x439b364c412b9e21),
    (90210, "dimm", "blackscholes", "vrl", 0xc983bf88128ea5a1),
    (
        90210,
        "sched",
        "blackscholes",
        "vrl-access",
        0x439b364c412b9e21,
    ),
    (
        90210,
        "dimm",
        "blackscholes",
        "vrl-access",
        0xc983bf88128ea5a1,
    ),
    (90210, "sched", "swaptions", "raidr", 0x1972eb2d1ffe08b9),
    (90210, "dimm", "swaptions", "raidr", 0xb08a1c007e31330d),
    (90210, "sched", "swaptions", "vrl", 0x1ecc58b15e5625ed),
    (90210, "dimm", "swaptions", "vrl", 0x2b028e7c59ee2da1),
    (
        90210,
        "sched",
        "swaptions",
        "vrl-access",
        0x1ecc58b15e5625ed,
    ),
    (90210, "dimm", "swaptions", "vrl-access", 0x2b028e7c59ee2da1),
    (90210, "sched", "raytrace", "raidr", 0x7bdf840634e2f4be),
    (90210, "dimm", "raytrace", "raidr", 0xae43f5087b7c7ad6),
    (90210, "sched", "raytrace", "vrl", 0xb5ca6b02f01c44f2),
    (90210, "dimm", "raytrace", "vrl", 0x42553d83ef2d57c1),
    (90210, "sched", "raytrace", "vrl-access", 0xb5ca6b02f01c44f2),
    (90210, "dimm", "raytrace", "vrl-access", 0x42553d83ef2d57c1),
    (90210, "sched", "facesim", "raidr", 0x8f07225b8ce7223b),
    (90210, "dimm", "facesim", "raidr", 0xb340b76d49969861),
    (90210, "sched", "facesim", "vrl", 0xf9156f460743fe87),
    (90210, "dimm", "facesim", "vrl", 0x6d61cb58ed786eb5),
    (90210, "sched", "facesim", "vrl-access", 0xf9156f460743fe87),
    (90210, "dimm", "facesim", "vrl-access", 0x6d61cb58ed786eb5),
    (90210, "sched", "ferret", "raidr", 0x15e369a91b4aa4e2),
    (90210, "dimm", "ferret", "raidr", 0xfb7076777ab832d0),
    (90210, "sched", "ferret", "vrl", 0x07aa23d437b3f5ca),
    (90210, "dimm", "ferret", "vrl", 0xc35fad9d58e3e8cc),
    (90210, "sched", "ferret", "vrl-access", 0x07aa23d437b3f5ca),
    (90210, "dimm", "ferret", "vrl-access", 0xc35fad9d58e3e8cc),
    (90210, "sched", "canneal", "raidr", 0x3d6711ccae1c792e),
    (90210, "dimm", "canneal", "raidr", 0xd7c8e5555706426b),
    (90210, "sched", "canneal", "vrl", 0xc47b6337d1e38d6a),
    (90210, "dimm", "canneal", "vrl", 0xdb14cd6d7a9f6527),
    (90210, "sched", "canneal", "vrl-access", 0xc47b6337d1e38d6a),
    (90210, "dimm", "canneal", "vrl-access", 0xdb14cd6d7a9f6527),
    (90210, "sched", "bgsave", "raidr", 0x1cf23ae5627ba33f),
    (90210, "dimm", "bgsave", "raidr", 0x01ae9c19a59658a9),
    (90210, "sched", "bgsave", "vrl", 0x90e4ba9d5979cbc5),
    (90210, "dimm", "bgsave", "vrl", 0xdf67b59ce91f19bf),
    (90210, "sched", "bgsave", "vrl-access", 0x90e4ba9d5979cbc5),
    (90210, "dimm", "bgsave", "vrl-access", 0xdf67b59ce91f19bf),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn stats_hash(stats: &SchedStats) -> u64 {
    fnv1a64(
        serde_json::to_string(stats)
            .expect("serializable")
            .as_bytes(),
    )
}

/// Runs the grid at one seed and duration: `(front end, benchmark,
/// policy, hash)` in grid order.
fn grid(seed: u64, duration_ms: f64) -> Vec<(&'static str, &'static str, &'static str, u64)> {
    let experiment = Experiment::new(ExperimentConfig {
        rows: ROWS,
        seed,
        duration_ms,
        ..Default::default()
    });
    let bank = experiment.sched_config(8).expect("8 banks split 512 rows");
    let dimm = experiment
        .dimm_config(2, 2, 4)
        .expect("2x2x4 splits 512 rows");
    let mut out = Vec::new();
    for benchmark in BENCHMARKS {
        let trace = experiment.materialize_trace(benchmark).expect("benchmark");
        for kind in POLICIES {
            let stats = experiment
                .run_scheduled_spanned_with(kind, bank, trace.iter().copied(), SPAN_CYCLES, |_| {})
                .expect("sched run");
            out.push(("sched", benchmark, kind.name(), stats_hash(&stats)));

            let whole = experiment
                .run(
                    &Engine::Sched(dimm),
                    kind,
                    trace.iter().copied(),
                    SPAN_CYCLES,
                    &mut NullObserver,
                    |_| {},
                )
                .expect("dimm run");
            let Outcome::Sched(whole) = whole else {
                unreachable!("a scheduler run reports scheduler stats")
            };
            let shards = (0..dimm.channels())
                .try_fold(SchedStats::default(), |merged, channel| {
                    experiment
                        .run_dimm_channel_spanned_with(
                            kind,
                            dimm,
                            channel,
                            trace.iter().copied(),
                            SPAN_CYCLES,
                            |_| {},
                        )
                        .map(|shard| merged.merge(&shard))
                })
                .expect("dimm shards");
            assert_eq!(
                shards,
                whole,
                "{benchmark}/{}: merged shards differ from the whole DIMM",
                kind.name()
            );
            out.push(("dimm", benchmark, kind.name(), stats_hash(&whole)));
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
fn scheduler_stats_match_the_recorded_hashes() {
    let actual: Vec<String> = grid(42, 8.0)
        .into_iter()
        .map(|(front, bench, policy, hash)| {
            format!("(\"{front}\", \"{bench}\", \"{policy}\", 0x{hash:016x})")
        })
        .collect();
    let expected: Vec<String> = EXPECTED_8MS
        .iter()
        .map(|(front, bench, policy, hash)| {
            format!("(\"{front}\", \"{bench}\", \"{policy}\", 0x{hash:016x})")
        })
        .collect();
    assert!(
        actual == expected,
        "scheduler statistics changed; actual:\n{}",
        render(&actual)
    );
}

#[test]
#[ignore = "serve-cold's full 64 ms geometry at two seeds; run in release"]
fn scheduler_stats_match_the_recorded_hashes_at_serve_cold_geometry() {
    let mut actual = Vec::new();
    for seed in [42u64, 90210] {
        for (front, bench, policy, hash) in grid(seed, 64.0) {
            actual.push(format!(
                "({seed}, \"{front}\", \"{bench}\", \"{policy}\", 0x{hash:016x})"
            ));
        }
    }
    let expected: Vec<String> = EXPECTED_64MS
        .iter()
        .map(|(seed, front, bench, policy, hash)| {
            format!("({seed}, \"{front}\", \"{bench}\", \"{policy}\", 0x{hash:016x})")
        })
        .collect();
    assert!(
        actual == expected,
        "scheduler statistics changed; actual:\n{}",
        render(&actual)
    );
}

fn bins_all(retention_ms: f64, rows: usize) -> BinningTable {
    BinningTable::from_profile(&BankProfile::from_rows(
        std::iter::repeat_n(retention_ms, rows),
        32,
    ))
}

/// Dense bursts separated by idle gaps, mixed reads and writes.
fn bursty_trace(bursts: u64, burst_len: u64, gap: u64, rows: u32) -> Vec<TraceRecord> {
    let mut trace = Vec::with_capacity((bursts * burst_len) as usize);
    for b in 0..bursts {
        for i in 0..burst_len {
            let idx = (b * burst_len + i) % u64::from(rows);
            let op = if i % 3 == 0 { Op::Write } else { Op::Read };
            trace.push(TraceRecord::new(b * gap + i, op, idx as u32));
        }
    }
    trace
}

/// FNV-1a 64 of the bursty DIMM run's `SchedStats` JSON, and of the
/// scheduler state it saves when halted mid-burst.
const BURSTY_DIMM_STATS: u64 = 0x9014_c56b_8c7f_f592;
const BURSTY_DIMM_SNAPSHOT: u64 = 0xf48a_f158_ddca_665f;

/// Queue depth of the bursty DIMM case: small, so bursts overrun it.
const BURSTY_DEPTH: usize = 8;

/// Cycles between burst starts in the bursty DIMM case.
const BURSTY_GAP: u64 = 200_000;

/// Bursts of one arrival per cycle, far above the service rate. Within
/// a burst the channel alternates in runs, 6 records for channel 0 and
/// 10 for channel 1, so channel 1 falls behind and channel 0's lane
/// parks its records; banks and ranks are drawn from an LCG over four
/// rows each, so queued requests hit open rows out of order.
fn dense_dimm_bursts(bursts: u64, burst_len: u64) -> Vec<TraceRecord> {
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut trace = Vec::with_capacity((bursts * burst_len) as usize);
    for b in 0..bursts {
        for i in 0..burst_len {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = (lcg >> 33) as u32;
            let channel = u32::from(i % 16 >= 6);
            let (rank_bank, row) = (draw & 7, (draw >> 3) & 3);
            let op = if i % 3 == 0 { Op::Write } else { Op::Read };
            let idx = ((row * 8 + rank_bank) << 1) | channel;
            trace.push(TraceRecord::new(b * BURSTY_GAP + i, op, idx));
        }
    }
    trace
}

#[test]
fn a_bursty_dimm_run_and_its_mid_burst_snapshot_match_the_recorded_hashes() {
    const DURATION_MS: f64 = 16.0;
    let config = SchedConfig::with_dimm_geometry(2, 2, 4, 64)
        .expect("geometry")
        .with_parallelism(true)
        .with_queue_depth(BURSTY_DEPTH);
    let rows = config.total_rows() as usize;
    let policy = || VrlAccess::new(bins_all(300.0, rows), vec![3; rows]);
    let end = config.timing.ms_to_cycles(DURATION_MS);
    let trace = dense_dimm_bursts(end / BURSTY_GAP, 600);

    let whole = Scheduler::new(config, policy())
        .expect("config")
        .run(trace.iter().copied(), DURATION_MS)
        .expect("whole run");
    assert_eq!(
        whole.max_queue_depth, BURSTY_DEPTH,
        "bursts must fill the queue"
    );
    assert!(whole.reordered > 0, "bursts must reorder picks");
    assert!(whole.queue_stalls > 0, "bursts must stall admission");

    // Halt in the middle of burst 20.
    let stop = 20 * BURSTY_GAP + 300;
    let mut first = Scheduler::new(config, policy()).expect("config");
    let mut cursor = SchedCursor::new();
    let mut records = trace
        .iter()
        .copied()
        .take_while(|r| r.cycle < end)
        .peekable();
    let paused = first
        .run_span_observed(&mut cursor, &mut records, end, stop, &mut NullObserver)
        .expect("span");
    assert!(paused, "the halt must leave work");
    let mut enc = vrl_snap::Encoder::new();
    first.save_state(&mut enc, &cursor);
    let bytes = enc.into_bytes();
    let restore = |bytes: &[u8]| {
        let mut sched = Scheduler::new(config, policy()).expect("config");
        let mut dec = vrl_snap::Decoder::new(bytes);
        let cursor = sched.restore_state(&mut dec).expect("restore");
        dec.finish().expect("no trailing bytes");
        (sched, cursor)
    };

    // Pulled records are served, queued (at most a full queue per
    // lane), or buffered; a lane's own fill buffers at most its next
    // arrival, so the rest were parked for it by the other lane.
    let (mut probe, probe_cursor) = restore(&bytes);
    let unserved = probe_cursor.pulled() - probe.finish(end).sim.accesses;
    let parked = unserved.saturating_sub(2 * BURSTY_DEPTH as u64 + 2);
    assert!(parked >= 4, "only {parked} records parked at the halt");

    // The snapshot loses nothing: resuming from its bytes ends where
    // the halted scheduler, run on, ends.
    let rest = |cursor: &SchedCursor| {
        trace
            .iter()
            .copied()
            .skip(cursor.pulled() as usize)
            .take_while(|r| r.cycle < end)
            .peekable()
    };
    let mut records = rest(&cursor);
    first
        .run_span_observed(&mut cursor, &mut records, end, u64::MAX, &mut NullObserver)
        .expect("run on");
    let (mut resumed, mut cursor) = restore(&bytes);
    let mut records = rest(&cursor);
    resumed
        .run_span_observed(&mut cursor, &mut records, end, u64::MAX, &mut NullObserver)
        .expect("resume");
    let resumed = resumed.finish(end);
    assert_eq!(resumed, first.finish(end), "resumed run diverged");
    // And both end where the uninterrupted run does: the halt's
    // synthetic clock counts no extra queue stall.
    assert_eq!(
        resumed, whole,
        "halted and resumed run diverged from the whole run"
    );

    let actual = (stats_hash(&whole), fnv1a64(&bytes));
    assert!(
        actual == (BURSTY_DIMM_STATS, BURSTY_DIMM_SNAPSHOT),
        "bursty DIMM run changed; actual: stats 0x{:016x}, snapshot 0x{:016x}",
        actual.0,
        actual.1
    );
}

fn assert_matches_reference<P: RefreshPolicy>(
    make_policy: impl Fn() -> P,
    config: SchedConfig,
    trace: &[TraceRecord],
    what: &str,
) {
    let soa = Scheduler::new(config, make_policy())
        .expect("config")
        .run(trace.iter().copied(), 64.0)
        .unwrap_or_else(|e| panic!("SoA run ({what}): {e}"));
    let reference = ReferenceScheduler::new(config, make_policy())
        .expect("config")
        .run(trace.iter().copied(), 64.0)
        .unwrap_or_else(|e| panic!("reference run ({what}): {e}"));
    assert_eq!(soa, reference, "SoA diverged from the reference ({what})");
}

#[test]
fn soa_scheduler_matches_the_reference_on_a_dimm() {
    let base = SchedConfig::with_dimm_geometry(2, 2, 4, 64).expect("geometry");
    let rows = base.total_rows() as usize;
    let trace = bursty_trace(30, 150, 300_000, base.total_rows());
    for parallel in [true, false] {
        let config = base.with_parallelism(parallel);
        let what = |p: &str| format!("{p}/2ch x 2rk x 4bk/parallel={parallel}");
        assert_matches_reference(|| AutoRefresh::new(64.0), config, &trace, &what("auto"));
        assert_matches_reference(
            || VrlAccess::new(bins_all(300.0, rows), vec![3; rows]),
            config,
            &trace,
            &what("vrl-access"),
        );
    }
}
