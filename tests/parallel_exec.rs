//! Cross-crate tests of the parallel execution engine: the determinism
//! contract (parallel bit-identical to serial), error propagation, and
//! the throughput meter's accounting.

use vrl::core::experiment::{Experiment, ExperimentConfig, MatrixCell, PolicyKind};
use vrl::core::{Engine, Error};
use vrl::dram::sim::NullObserver;
use vrl::dram::stats::SimStats;
use vrl::exec::{map_ordered, ExecConfig, ExecError};
use vrl::trace::WorkloadSpec;

fn experiment(seed: u64) -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: 192,
        duration_ms: 96.0,
        seed,
        ..Default::default()
    })
}

/// The contract the whole harness rests on: fanning the (benchmark ×
/// policy) matrix across workers changes wall-clock time only — every
/// statistic, for every workload, is bit-identical to the serial path.
#[test]
fn parallel_compare_all_is_bit_identical_to_serial() {
    for seed in [42u64, 7, 1234] {
        let experiment = experiment(seed);
        let serial: Vec<_> = WorkloadSpec::BENCHMARKS
            .iter()
            .map(|name| experiment.compare(name).expect("serial path"))
            .collect();
        assert_eq!(serial.len(), vrl::trace::WorkloadSpec::BENCHMARKS.len());
        for workers in [2usize, 5] {
            let parallel = experiment
                .compare_all(&ExecConfig::new(workers))
                .expect("parallel path");
            assert_eq!(serial, parallel, "seed {seed}, {workers} workers");
        }
    }
}

/// The matrix in job order, one [`Experiment::run`] at a time on the
/// calling thread: the oracle the pooled sweep is held to.
fn serial_matrix(
    experiment: &Experiment,
    engine: &Engine,
    policies: &[PolicyKind],
) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for benchmark in WorkloadSpec::BENCHMARKS {
        for &policy in policies {
            let trace = experiment.trace(benchmark).expect("known benchmark");
            let outcome = experiment
                .run(engine, policy, trace, 0, &mut NullObserver, |_| {})
                .expect("runs");
            cells.push(MatrixCell {
                benchmark: benchmark.to_owned(),
                policy,
                outcome,
            });
        }
    }
    cells
}

/// The sweep runner agrees with the serial oracle across pool shapes on
/// the simulator, the FR-FCFS controller and the multi-bank scheduler.
#[test]
fn matrix_is_stable_across_pool_shapes() {
    let experiment = experiment(42);
    // The scheduler needs power-of-two banks of power-of-two rows, and
    // a shorter horizon keeps the queued engines' debug-build runs cheap.
    let small = Experiment::new(ExperimentConfig {
        rows: 128,
        duration_ms: 32.0,
        ..Default::default()
    });
    let sched = Engine::Sched(small.sched_config(4).expect("4 banks"));
    let policies = [PolicyKind::Raidr, PolicyKind::VrlAccess];
    for (experiment, engine) in [
        (&experiment, Engine::Sim),
        (&small, Engine::FrFcfs { queue_depth: 32 }),
        (&small, sched),
    ] {
        let serial = serial_matrix(experiment, &engine, &policies);
        for cfg in [ExecConfig::new(3), ExecConfig::new(16)] {
            let (cells, report) = experiment
                .run_matrix(&engine, &policies, &cfg)
                .expect("matrix");
            assert_eq!(cells, serial, "{} diverged", engine.name());
            assert_eq!(report.jobs, cells.len());
            assert!(report.workers <= cells.len());
        }
    }
}

/// Worker failures surface as typed errors, not truncated results: a
/// panic in one job becomes `Error::WorkerPanic` with that job's index.
#[test]
fn worker_panics_convert_to_typed_errors() {
    let items: Vec<u32> = (0..12).collect();
    let err = map_ordered(&ExecConfig::new(3), &items, |idx, &x| {
        if x == 5 {
            panic!("injected failure");
        }
        Ok::<_, Error>(idx)
    })
    .unwrap_err();
    let converted: Error = err.into();
    match converted {
        Error::WorkerPanic { job, ref message } => {
            assert_eq!(job, 5);
            assert!(message.contains("injected failure"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

/// Job errors keep their domain type through the pool and the `From`
/// conversion, and the lowest job index wins deterministically.
#[test]
fn job_errors_keep_their_domain_type() {
    let items: Vec<usize> = (0..8).collect();
    let err = map_ordered(&ExecConfig::new(4), &items, |_, &x| {
        if x >= 3 {
            Err(Error::UnknownWorkload {
                requested: format!("job-{x}"),
                known: vec![],
            })
        } else {
            Ok(x)
        }
    })
    .unwrap_err();
    assert!(matches!(err, ExecError::Job { job: 3, .. }), "{err:?}");
    let converted: Error = err.into();
    assert!(
        matches!(&converted, Error::UnknownWorkload { requested, .. } if requested == "job-3"),
        "{converted:?}"
    );
}

/// The throughput meter's accumulation is exact: totals over matrix
/// cells equal the per-cell sums, and rates scale with wall time.
#[test]
fn throughput_accounting_is_exact() {
    let experiment = experiment(7);
    let policies = [PolicyKind::Vrl];
    let (cells, _) = experiment
        .run_matrix(&Engine::Sim, &policies, &ExecConfig::new(2))
        .expect("matrix");
    let mut total = SimStats::default();
    for cell in &cells {
        total.accumulate(cell.outcome.sim_stats());
    }
    let cycle_sum: u64 = cells
        .iter()
        .map(|c| c.outcome.sim_stats().total_cycles)
        .sum();
    assert_eq!(total.total_cycles, cycle_sum);
    let events_sum: u64 = cells.iter().map(|c| c.outcome.sim_stats().events()).sum();
    assert_eq!(total.events(), events_sum);
    let tp = total.throughput(2.0);
    assert_eq!(tp.sim_cycles_per_sec, cycle_sum as f64 / 2.0);
    assert_eq!(tp.events_per_sec, events_sum as f64 / 2.0);
}
