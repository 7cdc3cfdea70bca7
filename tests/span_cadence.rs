//! Spans change nothing, even with full queues.
//!
//! Every span engine runs through `Experiment::run` unsegmented and in
//! spans of a prime length, an eighth of the horizon and a seeded random
//! length, plus spans of one cycle on a short horizon. Each segmented
//! run must end with the unsegmented run's `Outcome` and observer event
//! sequence. The whole-DIMM scheduler advances its channel lanes one
//! span at a time, so how different channels' events interleave in its
//! stream, and so their `seq`, follows the span cadence; its events are
//! compared in `(cycle, bank, row, kind)` order.
//!
//! The traces are dense bursts that fill the queued engines' request
//! queues, so span boundaries land while a lane coasts towards its
//! target with a full queue and an arrival waiting. A queue stall
//! counted at such a synthetic cycle, which an unsegmented run never
//! visits, fails the test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vrl::core::experiment::{Experiment, ExperimentConfig, PolicyKind};
use vrl::core::{Engine, Outcome};
use vrl::dram::timing::TimingParams;
use vrl::obs::Event;
use vrl::trace::{Op, TraceRecord};

/// Rows of every engine: one bank for the single-bank engines, 8 × 128
/// for the bank-group scheduler, 2 × 2 × 4 × 64 for the DIMM.
const ROWS: u32 = 1024;

/// Request-queue capacity of the queued engines: small, so bursts
/// overrun it.
const QUEUE_DEPTH: usize = 8;

const POLICY: PolicyKind = PolicyKind::VrlAccess;

fn experiment(duration_ms: f64) -> Experiment {
    Experiment::new(ExperimentConfig {
        rows: ROWS,
        duration_ms,
        ..Default::default()
    })
}

/// Dense bursts separated by idle gaps, mixed reads and writes (the
/// shape of `tests/sched_identity.rs`'s bank-group bursts).
fn bursty_trace(bursts: u64, burst_len: u64, gap: u64) -> Vec<TraceRecord> {
    let mut trace = Vec::with_capacity((bursts * burst_len) as usize);
    for b in 0..bursts {
        for i in 0..burst_len {
            let idx = (b * burst_len + i) % u64::from(ROWS);
            let op = if i % 3 == 0 { Op::Write } else { Op::Read };
            trace.push(TraceRecord::new(b * gap + i, op, idx as u32));
        }
    }
    trace
}

/// Bursts of one arrival per cycle over a 2 × 2 × 4 DIMM with 64 rows a
/// bank (the shape of `tests/sched_identity.rs`'s DIMM bursts): runs of
/// 6 records for channel 0 and 10 for channel 1, banks and ranks drawn
/// from an LCG over four rows each.
fn dense_dimm_bursts(bursts: u64, burst_len: u64, gap: u64) -> Vec<TraceRecord> {
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
            trace.push(TraceRecord::new(b * gap + i, op, idx));
        }
    }
    trace
}

/// Every span engine, with the trace it runs over `end` cycles in
/// bursts `gap` cycles apart.
fn engines(e: &Experiment, end: u64, gap: u64) -> Vec<(Engine, Vec<TraceRecord>)> {
    let bursts = end / gap;
    let bank_group = bursty_trace(bursts, 600, gap);
    let dimm_bursts = dense_dimm_bursts(bursts, 600, gap);
    let sched = e.sched_config(8).expect("8 banks");
    let dimm = e.dimm_config(2, 2, 4).expect("2 x 2 x 4 DIMM");
    vec![
        (Engine::Sim, bank_group.clone()),
        (
            Engine::FrFcfs {
                queue_depth: QUEUE_DEPTH,
            },
            bank_group.clone(),
        ),
        (
            Engine::Sched(sched.with_queue_depth(QUEUE_DEPTH)),
            bank_group,
        ),
        (
            Engine::Sched(dimm.with_queue_depth(QUEUE_DEPTH)),
            dimm_bursts.clone(),
        ),
        (
            Engine::Channel {
                sched: dimm.with_queue_depth(QUEUE_DEPTH),
                channel: 1,
            },
            dimm_bursts,
        ),
    ]
}

/// One run in spans of `span_cycles` (0: unsegmented): its outcome,
/// its recorded events and the number of spans it paused at.
fn observed(
    e: &Experiment,
    engine: &Engine,
    trace: &[TraceRecord],
    span_cycles: u64,
) -> (Outcome, Vec<Event>, u64) {
    let mut recorder = engine.recorder("cadence", POLICY);
    let mut pauses = 0;
    let outcome = e
        .run(
            engine,
            POLICY,
            trace.iter().copied(),
            span_cycles,
            &mut recorder,
            |_| pauses += 1,
        )
        .unwrap_or_else(|err| panic!("{}: {err}", engine.name()));
    let stream = recorder.finish();
    assert_eq!(
        stream.dropped,
        0,
        "{}: the ring dropped events",
        engine.name()
    );
    (outcome, stream.events, pauses)
}

/// Events in an order that does not depend on how a multi-channel
/// run's lanes interleave: sorted by everything but `seq`.
fn interleaving_free(events: &[Event]) -> Vec<(u64, u32, u32, String)> {
    let mut keys: Vec<_> = events
        .iter()
        .map(|e| (e.cycle, e.bank, e.row, format!("{:?}", e.kind)))
        .collect();
    keys.sort();
    keys
}

fn queue_stalls(outcome: &Outcome) -> Option<u64> {
    match outcome {
        Outcome::FrFcfs(stats) => Some(stats.queue_stalls),
        Outcome::Sched(stats) => Some(stats.queue_stalls),
        Outcome::Sim(_) | Outcome::Faulted(_) => None,
    }
}

/// Runs every engine unsegmented and at each cadence, and checks that
/// the segmented runs end where the unsegmented one does.
fn assert_cadences_agree(duration_ms: f64, gap: u64, mut cadences: impl FnMut(u64) -> Vec<u64>) {
    let e = experiment(duration_ms);
    let end = TimingParams::paper_default().ms_to_cycles(duration_ms);
    for (engine, trace) in engines(&e, end, gap) {
        let name = format!("{}/{:?}", engine.name(), engine);
        let multi_channel = matches!(engine, Engine::Sched(sched) if sched.channels() > 1);
        let (whole, whole_events, pauses) = observed(&e, &engine, &trace, 0);
        assert_eq!(pauses, 0, "{name}: an unsegmented run never pauses");
        if let Some(stalls) = queue_stalls(&whole) {
            assert!(stalls > 0, "{name}: the bursts must fill the queue");
        }
        for span in cadences(end) {
            let (spanned, events, pauses) = observed(&e, &engine, &trace, span);
            assert!(pauses > 0, "{name}: span {span} never paused");
            assert_eq!(spanned, whole, "{name}: span {span} changed the outcome");
            let same_events = if multi_channel {
                interleaving_free(&events) == interleaving_free(&whole_events)
            } else {
                events == whole_events
            };
            assert!(
                same_events,
                "{name}: span {span} changed the event sequence ({} vs {} events)",
                events.len(),
                whole_events.len()
            );
        }
    }
}

#[test]
fn spans_of_any_length_match_the_unsegmented_run() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CADE);
    assert_cadences_agree(4.0, 200_000, |end| {
        vec![997, end / 8, rng.gen_range(1_000..end / 2)]
    });
}

#[test]
fn one_cycle_spans_match_the_unsegmented_run() {
    assert_cadences_agree(0.06, 20_000, |_| vec![1]);
}
