//! Bit-identity guard for checkpoint snapshot files.
//!
//! The constants below are FNV-1a 64 hashes of the whole snapshot file
//! (sealed envelope, header, resume point, engine state and — for the
//! traced run — the recorder's event ring) that a run halted at its
//! first checkpoint leaves on disk. They cover the single-bank
//! simulator, the FR-FCFS controller, the 8-bank scheduler, a traced
//! scheduler run and a full-DIMM scheduler geometry. A refactor of the
//! run entry points or the snapshot header must leave them passing
//! unedited; a change meant to alter the snapshot format bumps
//! `vrl_snap::FORMAT_VERSION`, re-records them and says so.

use vrl_dram::checkpoint::{CheckpointConfig, CheckpointOutcome};
use vrl_dram::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl_dram::Engine;

/// `(run, fnv1a64)` of the file each run below leaves when it halts at
/// its first checkpoint, cycle 3 M of a 256-row, 16 ms experiment.
const EXPECTED: [(&str, u64); 5] = [
    ("sim", 0xa784_1509_361c_e7dd),
    ("frfcfs", 0xd381_c121_25a7_0db3),
    ("sched", 0xcdee_2f21_0eb6_ae42),
    ("traced", 0xe85a_f7d7_e1a8_922e),
    ("dimm", 0x54e9_48cb_33ab_b662),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Whether a checkpointed run halted at its first snapshot.
fn halted<S>(outcome: Result<CheckpointOutcome<S>, vrl_dram::Error>) -> bool {
    let outcome = outcome.expect("checkpointed run");
    matches!(outcome, CheckpointOutcome::Halted { checkpoints: 1 })
}

#[test]
fn halted_snapshot_bytes_are_pinned() {
    let e = Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 16.0,
        ..Default::default()
    });
    let sched = e.sched_config(8).expect("8 banks");
    let dimm = e.dimm_config(2, 2, 4).expect("2x2x4 DIMM");
    for (run, expected) in EXPECTED {
        let id = std::process::id();
        let path = std::env::temp_dir().join(format!("vrl-snap-id-{id}-{run}.snap"));
        let _ = std::fs::remove_file(&path);
        let ckpt = CheckpointConfig::new(&path, 3_000_000).with_halt_after(1);
        let (vrl, vrl_access) = (PolicyKind::Vrl, PolicyKind::VrlAccess);
        let halted = match run {
            "sim" => halted(
                e.run_checkpointed(&Engine::Sim, vrl_access, "ferret", &ckpt, false)
                    .map(|(outcome, _)| outcome),
            ),
            "frfcfs" => halted(
                e.run_checkpointed(
                    &Engine::FrFcfs { queue_depth: 8 },
                    vrl,
                    "canneal",
                    &ckpt,
                    false,
                )
                .map(|(outcome, _)| outcome),
            ),
            "sched" => halted(
                e.run_checkpointed(&Engine::Sched(sched), vrl_access, "bgsave", &ckpt, false)
                    .map(|(outcome, _)| outcome),
            ),
            "traced" => halted(
                e.run_checkpointed(&Engine::Sched(sched), vrl, "ferret", &ckpt, true)
                    .map(|(outcome, _)| outcome),
            ),
            _ => halted(
                e.run_checkpointed(
                    &Engine::Sched(dimm),
                    PolicyKind::Raidr,
                    "swaptions",
                    &ckpt,
                    false,
                )
                .map(|(outcome, _)| outcome),
            ),
        };
        assert!(halted, "{run}: the run must halt at its first checkpoint");
        let bytes = std::fs::read(&path).expect("snapshot file");
        let _ = std::fs::remove_file(&path);
        let hash = fnv1a64(&bytes);
        assert_eq!(hash, expected, "{run} snapshot bytes changed: {hash:#018x}");
    }
}
