//! Pins the refresh wheel's pop order and its `events()` order.
//!
//! Snapshots save a wheel as `RefreshQueue::events()`, so the bytes of
//! every halted run depend on that order, not only on the pop order
//! `tests/wheel_equivalence.rs` checks. The oracle here is the wheel as
//! it was when snapshot bytes were first pinned: a ring of one `Vec` per
//! bucket, scanned slot by slot. The current wheel must pop the same
//! events, answer the same `next_due`, list `events()` in the same order
//! (the current bucket's heap order, then the ring slots in ascending
//! order with each slot in push order, then the overflow level) and
//! save the same snapshot bytes, over seeded random sequences of
//! pushes, pops, re-queues one period on, postponements behind the
//! drain cursor and pushes beyond the ring window.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vrl_dram_sim::wheel::{RefreshEvent, RefreshQueue, BUCKET_CYCLES, NUM_BUCKETS};
use vrl_snap::{Decoder, Encoder, Snapshot};

/// The ring-of-`Vec`s wheel, kept verbatim as the oracle.
struct RingQueue {
    ring: Vec<Vec<RefreshEvent>>,
    ring_len: usize,
    current: BinaryHeap<Reverse<RefreshEvent>>,
    cursor: u64,
    overflow: Vec<RefreshEvent>,
    overflow_min: u64,
    scratch: Vec<RefreshEvent>,
}

impl RingQueue {
    fn new() -> Self {
        RingQueue {
            ring: vec![Vec::new(); NUM_BUCKETS],
            ring_len: 0,
            current: BinaryHeap::new(),
            cursor: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            scratch: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ring_len + self.current.len() + self.overflow.len()
    }

    fn push(&mut self, due: u64, row: u32, original_due: u64) {
        let bucket = due / BUCKET_CYCLES;
        if bucket <= self.cursor {
            self.current.push(Reverse((due, row, original_due)));
        } else if bucket < self.cursor + NUM_BUCKETS as u64 {
            self.ring[(bucket % NUM_BUCKETS as u64) as usize].push((due, row, original_due));
            self.ring_len += 1;
        } else {
            self.overflow_min = self.overflow_min.min(due);
            self.overflow.push((due, row, original_due));
        }
    }

    fn next_due(&mut self) -> Option<u64> {
        self.settle();
        self.current.peek().map(|Reverse((due, _, _))| *due)
    }

    fn pop_due_before(&mut self, horizon: u64) -> Option<RefreshEvent> {
        self.settle();
        match self.current.peek() {
            Some(&Reverse(event)) if event.0 < horizon => {
                self.current.pop();
                Some(event)
            }
            _ => None,
        }
    }

    fn settle(&mut self) {
        while self.current.is_empty() {
            if self.ring_len > 0 {
                for step in 1..=NUM_BUCKETS as u64 {
                    let slot = ((self.cursor + step) % NUM_BUCKETS as u64) as usize;
                    if !self.ring[slot].is_empty() {
                        self.cursor += step;
                        std::mem::swap(&mut self.ring[slot], &mut self.scratch);
                        self.ring_len -= self.scratch.len();
                        self.current.extend(self.scratch.drain(..).map(Reverse));
                        self.migrate_overflow();
                        break;
                    }
                }
            } else if !self.overflow.is_empty() {
                self.cursor = self.overflow_min / BUCKET_CYCLES;
                self.migrate_overflow();
            } else {
                return;
            }
        }
    }

    fn events(&self) -> Vec<RefreshEvent> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.current.iter().map(|Reverse(e)| *e));
        for slot in &self.ring {
            out.extend_from_slice(slot);
        }
        out.extend_from_slice(&self.overflow);
        out
    }

    fn migrate_overflow(&mut self) {
        let window_end = (self.cursor + NUM_BUCKETS as u64).saturating_mul(BUCKET_CYCLES);
        if self.overflow_min >= window_end {
            return;
        }
        let mut kept = Vec::new();
        let mut kept_min = u64::MAX;
        for event in self.overflow.drain(..) {
            if event.0 < window_end {
                let bucket = event.0 / BUCKET_CYCLES;
                if bucket <= self.cursor {
                    self.current.push(Reverse(event));
                } else {
                    self.ring[(bucket % NUM_BUCKETS as u64) as usize].push(event);
                    self.ring_len += 1;
                }
            } else {
                kept_min = kept_min.min(event.0);
                kept.push(event);
            }
        }
        self.overflow = kept;
        self.overflow_min = kept_min;
    }

    /// Rebuilds the oracle the way `RefreshQueue`'s snapshot load does.
    fn from_events(events: &[RefreshEvent]) -> Self {
        let mut q = RingQueue::new();
        for &(due, row, original_due) in events {
            q.push(due, row, original_due);
        }
        q
    }
}

/// The snapshot bytes of `wheel`.
fn saved(wheel: &RefreshQueue) -> Vec<u8> {
    let mut enc = Encoder::new();
    wheel.save(&mut enc);
    enc.into_bytes()
}

/// The snapshot bytes the oracle's order would save.
fn oracle_saved(oracle: &RingQueue) -> Vec<u8> {
    let mut enc = Encoder::new();
    oracle.events().save(&mut enc);
    enc.into_bytes()
}

fn assert_same(wheel: &RefreshQueue, oracle: &RingQueue, what: &str) {
    assert_eq!(wheel.len(), oracle.len(), "{what}: len");
    assert_eq!(wheel.events(), oracle.events(), "{what}: events() order");
}

/// One seeded run of `steps` random operations over `rows` rows.
fn run(seed: u64, rows: u32, steps: usize, check_every: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = NUM_BUCKETS as u64 * BUCKET_CYCLES;
    // The real bin periods at 1 GHz, a short one for dense traffic and
    // one wider than the ring window.
    let periods = [
        640_000u64,
        64_000_000,
        128_000_000,
        256_000_000,
        window + 12_345,
    ];
    let period_of = |row: u32| periods[(row as usize * 7 + seed as usize) % periods.len()];

    let mut wheel = RefreshQueue::new();
    let mut oracle = RingQueue::new();
    let mut queued = vec![false; rows as usize];
    for row in 0..rows {
        let period = period_of(row);
        let offset = (row as u64).wrapping_mul(2_654_435_761) % period;
        wheel.push(offset, row, offset);
        oracle.push(offset, row, offset);
        queued[row as usize] = true;
    }
    assert_same(&wheel, &oracle, "initial");

    // The drain point: no event before it is still queued unless it was
    // pushed behind the cursor after the fact.
    let mut now = 0u64;
    for step in 0..steps {
        let what = format!("seed {seed}, rows {rows}, step {step}");
        match rng.gen_range(0..100u32) {
            // Drain up to a horizon a little ahead of the drain point.
            0..=54 => {
                let reach = match rng.gen_range(0..10u32) {
                    0 => window,
                    1..=3 => 64_000_000,
                    _ => 2_000_000,
                };
                let horizon = now + rng.gen_range(0..reach);
                let popped = wheel.pop_due_before(horizon);
                assert_eq!(popped, oracle.pop_due_before(horizon), "{what}: pop");
                if let Some((due, row, original_due)) = popped {
                    now = now.max(due);
                    queued[row as usize] = false;
                    let requeue = match rng.gen_range(0..10u32) {
                        // Re-queue one period on, drift-free.
                        0..=5 => {
                            let next = original_due + period_of(row);
                            Some((next, next))
                        }
                        // Postpone a little, keeping the original deadline.
                        6 | 7 => Some((due + rng.gen_range(0..200_000u64), original_due)),
                        // Postpone behind the cursor ("right after this
                        // access"), which lands in the current bucket.
                        8 => Some((
                            due.saturating_sub(rng.gen_range(0..BUCKET_CYCLES)),
                            original_due,
                        )),
                        _ => None,
                    };
                    if let Some((next, original)) = requeue {
                        wheel.push(next, row, original);
                        oracle.push(next, row, original);
                        queued[row as usize] = true;
                    }
                }
            }
            // Queue an idle row: behind the drain point, inside the
            // window or beyond it (the overflow level).
            55..=79 => {
                let row = rng.gen_range(0..rows);
                if !queued[row as usize] {
                    let due = match rng.gen_range(0..4u32) {
                        0 => now.saturating_sub(rng.gen_range(0..4 * BUCKET_CYCLES)),
                        1 => now + window + rng.gen_range(0..3 * window),
                        _ => now + rng.gen_range(0..window),
                    };
                    wheel.push(due, row, due);
                    oracle.push(due, row, due);
                    queued[row as usize] = true;
                }
            }
            80..=94 => {
                assert_eq!(wheel.next_due(), oracle.next_due(), "{what}: next_due");
            }
            // Save and restore both, as a checkpointed run does.
            _ => {
                let bytes = saved(&wheel);
                assert_eq!(bytes, oracle_saved(&oracle), "{what}: snapshot bytes");
                let mut dec = Decoder::new(&bytes);
                wheel = RefreshQueue::load(&mut dec).expect("loads");
                dec.finish().expect("fully consumed");
                oracle = RingQueue::from_events(&oracle.events());
                assert_same(&wheel, &oracle, &what);
            }
        }
        if step % check_every == 0 {
            assert_same(&wheel, &oracle, &what);
        }
    }
    assert_same(&wheel, &oracle, "final");
    assert_eq!(saved(&wheel), oracle_saved(&oracle), "final snapshot bytes");
    // Drain both to the end.
    loop {
        let popped = wheel.pop_due_before(u64::MAX);
        assert_eq!(popped, oracle.pop_due_before(u64::MAX), "final drain");
        if popped.is_none() {
            break;
        }
    }
    assert!(wheel.is_empty());
}

#[test]
fn sparse_wheels_keep_the_ring_order() {
    for seed in 0..6 {
        run(seed, [32, 48, 64][seed as usize % 3], 2_000, 3);
    }
}

#[test]
fn dense_wheels_keep_the_ring_order() {
    run(100, 8192, 4_000, 1_000);
}

#[test]
#[ignore = "long run: cargo test --release --test wheel_order -- --ignored"]
fn long_runs_keep_the_ring_order() {
    for seed in 1_000..1_060 {
        run(seed, [32, 64, 512][seed as usize % 3], 20_000, 1);
    }
    for seed in 2_000..2_004 {
        run(seed, 8192, 50_000, 199);
    }
}
