//! Crash-consistency contract: a run killed at an arbitrary checkpoint
//! and resumed from its snapshot file must be bit-identical to a run
//! that never paused — on every front end (single-bank simulator,
//! FR-FCFS controller, multi-bank scheduler), including the recorded
//! event stream of traced runs. Corrupt, truncated, or mismatched
//! snapshots must surface as typed errors, never as garbage state.

use std::path::PathBuf;

use vrl_dram::checkpoint::{CheckpointConfig, CheckpointOutcome};
use vrl_dram::dram_sim::sim::NullObserver;
use vrl_dram::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl_dram::{Engine, Error, Outcome};

fn experiment() -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 64.0,
        ..Default::default()
    })
}

/// An uninterrupted run of `policy` on `engine` over `benchmark`.
fn uninterrupted(
    exp: &Experiment,
    engine: &Engine,
    policy: PolicyKind,
    benchmark: &str,
) -> Outcome {
    let trace = exp.trace(benchmark).expect("known benchmark");
    exp.run(engine, policy, trace, 0, &mut NullObserver, |_| {})
        .expect("reference run")
}

/// A per-test scratch file under the target-adjacent temp dir, removed
/// on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("vrl-ckpt-{}-{name}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Kill cycles spread across the 64 M-cycle horizon: early, prime-odd
/// mid-run, and late.
const KILL_CADENCES: [u64; 3] = [1_000_000, 7_777_777, 41_000_000];

#[test]
fn sim_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    let exp = experiment();
    let reference = exp
        .run_policy(PolicyKind::VrlAccess, "swaptions")
        .expect("reference run");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("sim-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(
                &Engine::Sim,
                PolicyKind::VrlAccess,
                "swaptions",
                &ckpt,
                false,
            )
            .expect("checkpointed run")
            .0;
        assert_eq!(
            halted,
            CheckpointOutcome::Halted { checkpoints: 1 },
            "cadence {cadence} must halt mid-run"
        );
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.engine, Engine::Sim);
        assert_eq!(report.benchmark, "swaptions");
        assert_eq!(report.policy, PolicyKind::VrlAccess);
        match report.outcome {
            CheckpointOutcome::Completed(Outcome::Sim(stats)) => {
                assert_eq!(stats, reference, "kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed sim stats, got {other:?}"),
        }
    }
}

#[test]
fn frfcfs_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    let exp = experiment();
    let queue_depth = exp.sched_config(4).expect("sched config").queue_depth;
    let engine = Engine::FrFcfs { queue_depth };
    let reference = uninterrupted(&exp, &engine, PolicyKind::Vrl, "ferret");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("frfcfs-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(&engine, PolicyKind::Vrl, "ferret", &ckpt, false)
            .expect("checkpointed run")
            .0;
        assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.engine, engine);
        match report.outcome {
            CheckpointOutcome::Completed(stats @ Outcome::FrFcfs(_)) => {
                assert_eq!(stats, reference, "kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed controller stats, got {other:?}"),
        }
    }
}

#[test]
fn sched_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    let exp = experiment();
    let sched = Engine::Sched(exp.sched_config(4).expect("sched config"));
    let reference = uninterrupted(&exp, &sched, PolicyKind::VrlAccess, "bgsave");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("sched-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(&sched, PolicyKind::VrlAccess, "bgsave", &ckpt, false)
            .expect("checkpointed run")
            .0;
        assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.engine, sched);
        match report.outcome {
            CheckpointOutcome::Completed(stats @ Outcome::Sched(_)) => {
                assert_eq!(stats, reference, "kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed scheduler stats, got {other:?}"),
        }
    }
}

#[test]
fn dimm_sched_resume_is_bit_identical_at_arbitrary_kill_cycles() {
    // The full-DIMM geometry exercises the multi-channel lane cursors,
    // per-rank bus state, and the struct-of-arrays bank state in the
    // snapshot path.
    let exp = experiment();
    let sched = Engine::Sched(exp.dimm_config(2, 2, 4).expect("dimm config"));
    let reference = uninterrupted(&exp, &sched, PolicyKind::VrlAccess, "bgsave");
    for (i, cadence) in KILL_CADENCES.into_iter().enumerate() {
        let scratch = Scratch::new(&format!("dimm-{i}"));
        let ckpt = CheckpointConfig::new(&scratch.0, cadence).with_halt_after(1);
        let halted = exp
            .run_checkpointed(&sched, PolicyKind::VrlAccess, "bgsave", &ckpt, false)
            .expect("checkpointed run")
            .0;
        assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
        let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
        assert_eq!(report.engine, sched);
        match report.outcome {
            CheckpointOutcome::Completed(stats @ Outcome::Sched(_)) => {
                assert_eq!(stats, reference, "DIMM kill at cycle {cadence} diverged");
            }
            other => panic!("expected completed scheduler stats, got {other:?}"),
        }
    }
}

#[test]
fn resume_survives_multiple_kills_in_one_run() {
    // Kill at the first checkpoint, resume with checkpointing still on,
    // kill again at the next, and resume to completion — the final
    // stats must still match the uninterrupted run.
    let exp = experiment();
    let sched = Engine::Sched(exp.sched_config(4).expect("sched config"));
    let reference = uninterrupted(&exp, &sched, PolicyKind::Vrl, "swaptions");
    let scratch = Scratch::new("multi-kill");
    let ckpt = CheckpointConfig::new(&scratch.0, 9_000_000).with_halt_after(1);
    let halted = exp
        .run_checkpointed(&sched, PolicyKind::Vrl, "swaptions", &ckpt, false)
        .expect("first leg")
        .0;
    assert_eq!(halted, CheckpointOutcome::Halted { checkpoints: 1 });
    let report = vrl_dram::checkpoint::resume(&scratch.0, Some(&ckpt)).expect("second leg");
    assert!(
        matches!(report.outcome, CheckpointOutcome::Halted { checkpoints: 1 }),
        "continued checkpointing must halt again: {:?}",
        report.outcome
    );
    let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("final leg");
    match report.outcome {
        CheckpointOutcome::Completed(stats @ Outcome::Sched(_)) => {
            assert_eq!(stats, reference);
        }
        other => panic!("expected completed scheduler stats, got {other:?}"),
    }
}

#[test]
fn traced_resume_reproduces_the_identical_event_stream() {
    let exp = experiment();
    let engine = Engine::Sched(exp.sched_config(4).expect("sched config"));
    let mut recorder = engine.recorder("ferret", PolicyKind::VrlAccess);
    let trace = exp.trace("ferret").expect("known benchmark");
    let ref_stats = exp.run(
        &engine,
        PolicyKind::VrlAccess,
        trace,
        0,
        &mut recorder,
        |_| {},
    );
    let ref_stats = ref_stats.expect("reference traced run");
    let ref_stream = recorder.finish();
    let scratch = Scratch::new("traced");
    let ckpt = CheckpointConfig::new(&scratch.0, 13_000_000).with_halt_after(1);
    let halted = exp
        .run_checkpointed(&engine, PolicyKind::VrlAccess, "ferret", &ckpt, true)
        .expect("checkpointed traced run")
        .0;
    assert!(matches!(
        halted,
        CheckpointOutcome::Halted { checkpoints: 1 }
    ));
    let report = vrl_dram::checkpoint::resume(&scratch.0, None).expect("resume");
    let stream = report.events.expect("traced snapshot resumes with events");
    match report.outcome {
        CheckpointOutcome::Completed(stats @ Outcome::Sched(_)) => {
            assert_eq!(stats, ref_stats);
        }
        other => panic!("expected completed scheduler stats, got {other:?}"),
    }
    assert_eq!(stream.events, ref_stream.events, "event streams diverged");
    assert_eq!(stream.dropped, ref_stream.dropped);
    assert_eq!(stream.label, ref_stream.label);
    assert_eq!(stream.policy, ref_stream.policy);
}

#[test]
fn corrupt_snapshots_are_typed_errors() {
    let exp = experiment();
    let scratch = Scratch::new("corrupt");
    let ckpt = CheckpointConfig::new(&scratch.0, 5_000_000).with_halt_after(1);
    exp.run_checkpointed(&Engine::Sim, PolicyKind::Vrl, "swaptions", &ckpt, false)
        .expect("checkpointed run");
    let good = std::fs::read(&scratch.0).expect("snapshot bytes");

    // A flipped payload byte fails the checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    std::fs::write(&scratch.0, &flipped).expect("write corrupt");
    match vrl_dram::checkpoint::resume(&scratch.0, None) {
        Err(Error::Snapshot(vrl_snap::SnapError::ChecksumMismatch { .. })) => {}
        other => panic!("expected checksum mismatch, got {other:?}"),
    }

    // A truncated file cannot parse its envelope.
    std::fs::write(&scratch.0, &good[..good.len() / 3]).expect("write truncated");
    assert!(
        matches!(
            vrl_dram::checkpoint::resume(&scratch.0, None),
            Err(Error::Snapshot(_))
        ),
        "truncated snapshot must be a typed snapshot error"
    );

    // A missing file is a typed I/O error, not a panic.
    std::fs::remove_file(&scratch.0).expect("remove");
    assert!(matches!(
        vrl_dram::checkpoint::resume(&scratch.0, None),
        Err(Error::Snapshot(vrl_snap::SnapError::Io { .. }))
    ));
}

#[test]
fn zero_cadence_is_rejected() {
    let exp = experiment();
    let scratch = Scratch::new("zero");
    let ckpt = CheckpointConfig::new(&scratch.0, 0);
    assert!(matches!(
        exp.run_checkpointed(&Engine::Sim, PolicyKind::Vrl, "swaptions", &ckpt, false),
        Err(Error::Snapshot(vrl_snap::SnapError::Malformed { .. }))
    ));
}

#[test]
fn engines_without_a_checkpoint_seam_are_typed_errors() {
    let exp = experiment();
    let scratch = Scratch::new("seamless");
    let ckpt = CheckpointConfig::new(&scratch.0, 1_000_000);
    let sched = exp.dimm_config(2, 1, 2).expect("256 rows over 4 banks");
    let faults = vrl_dram::dram_sim::fault::FaultConfig::default_scenario(7);
    for (engine, name) in [
        (Engine::Channel { sched, channel: 0 }, "channel"),
        (
            Engine::Faulted {
                faults,
                guard: None,
            },
            "faulted",
        ),
    ] {
        let err = exp
            .run_checkpointed(&engine, PolicyKind::Vrl, "swaptions", &ckpt, false)
            .expect_err("no checkpoint seam");
        assert_eq!(err, Error::NotCheckpointable { engine: name });
        assert_eq!(
            err.to_string(),
            format!("the {name} engine cannot be checkpointed")
        );
    }
    assert!(!scratch.0.exists(), "a rejected run writes no snapshot");
}

#[test]
fn manifested_matrix_matches_direct_runs_and_resumes() {
    let exp = Experiment::new(ExperimentConfig {
        rows: 256,
        duration_ms: 32.0,
        ..Default::default()
    });
    let policies = [PolicyKind::Raidr, PolicyKind::Vrl];
    let pool = vrl_exec::ExecConfig::new(2);
    let scratch = Scratch::new("manifest");

    let direct = exp
        .run_matrix(&Engine::Sim, &policies, &pool)
        .expect("direct matrix")
        .0;
    let fresh = exp
        .run_matrix_manifested(&pool, &policies, &scratch.0)
        .expect("fresh manifested matrix");
    assert_eq!(fresh, direct, "manifested sweep diverged from direct run");

    // A second pass finds every cell already persisted and re-simulates
    // nothing — it must return the identical matrix.
    let reloaded = exp
        .run_matrix_manifested(&pool, &policies, &scratch.0)
        .expect("reloaded manifested matrix");
    assert_eq!(reloaded, direct);

    // A manifest from a different experiment shape is refused, not
    // silently mixed in.
    let other = Experiment::new(ExperimentConfig {
        rows: 512,
        duration_ms: 32.0,
        ..Default::default()
    });
    assert!(matches!(
        other.run_matrix_manifested(&pool, &policies, &scratch.0),
        Err(Error::ResumeMismatch { .. })
    ));
    assert!(matches!(
        exp.run_matrix_manifested(&pool, &[PolicyKind::Raidr], &scratch.0),
        Err(Error::ResumeMismatch { .. })
    ));
}
