//! The bucketed timing-wheel refresh queue.
//!
//! The simulator keeps one outstanding refresh deadline per row. The old
//! implementation stored them in a `BinaryHeap`, paying `O(log n)` per
//! schedule and per expiry over the full 8192-row bank. This wheel keys
//! events by deadline cycle into fixed-width buckets: scheduling is an
//! `O(1)` push into the bucket the deadline falls in, and expiry drains
//! one bucket at a time in deadline order, paying ordering cost only
//! within a bucket (a handful of events) — `O(1)` amortized per event.
//!
//! Layout:
//!
//! * a ring of [`NUM_BUCKETS`] unsorted buckets, each [`BUCKET_CYCLES`]
//!   wide, spanning a window of `NUM_BUCKETS × BUCKET_CYCLES` ≈ 268 M
//!   cycles — wider than the longest refresh period (256 ms = 256 M
//!   cycles at 1 GHz), so steady-state schedules never leave the ring.
//!   A bucket is a singly linked list threaded through one node arena:
//!   each slot keeps its first and last node, nodes are appended at the
//!   tail (so a bucket lists its events in push order) and a drained
//!   bucket's nodes go back on the arena's free list in one splice. A
//!   row has at most one queued event, so the arena never outgrows the
//!   bank's rows and a new wheel allocates only its zeroed slot table;
//! * an occupancy bitmap, one bit per slot, so the drain finds the next
//!   non-empty bucket a 64-slot word at a time with `trailing_zeros`
//!   and [`RefreshQueue::events`] visits only occupied slots;
//! * a `current` min-heap holding the bucket being drained (and any
//!   event scheduled at or before the drain point, e.g. a postponed
//!   refresh re-queued for "right after this access");
//! * an `overflow` level for deadlines beyond the window (postponed or
//!   fault-delayed refreshes pushed past the horizon, or exotic policies
//!   with multi-second periods), migrated back into the ring as the
//!   window advances.
//!
//! Ordering is **exactly** the old heap's: events expire by
//! `(due, row, original_due)` ascending. Each row has at most one queued
//! event, so `(due, row)` already breaks every tie deterministically —
//! the property test in `tests/wheel_equivalence.rs` pins this against a
//! reference heap, including postponement re-queue patterns, and
//! `tests/wheel_order.rs` pins [`RefreshQueue::events`]' order (the
//! snapshot bytes) against the ring of one `Vec` per bucket this layout
//! replaced.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One queued refresh deadline: `(due_cycle, row, original_due_cycle)`.
///
/// `original_due` is the deadline the schedule advances from; a
/// postponed or fault-delayed event keeps its original deadline so the
/// period never drifts.
pub type RefreshEvent = (u64, u32, u64);

/// Width of one bucket in cycles (32.8 µs at 1 GHz). Power of two so the
/// slot math compiles to shifts.
pub const BUCKET_CYCLES: u64 = 1 << 15;

/// Buckets in the ring. The window `NUM_BUCKETS × BUCKET_CYCLES = 2^28`
/// cycles (≈ 268 ms) covers the longest retention bin (256 ms).
pub const NUM_BUCKETS: usize = 1 << 13;

/// Words of the occupancy bitmap.
const WORDS: usize = NUM_BUCKETS / 64;

/// End of a node list: never a valid arena index, so `nodes.get(NIL)`
/// ends a walk.
const NIL: u32 = u32::MAX;

/// One ring event in the node arena, linked to the next event of its
/// bucket (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    due: u64,
    original_due: u64,
    row: u32,
    next: u32,
}

/// The bucketed timing wheel (see the module docs).
#[derive(Debug, Clone)]
pub struct RefreshQueue {
    /// `[first, last]` node of each ring slot's list, valid only where
    /// `occupied` has the slot's bit. Invariant: every event in slot
    /// `b % NUM_BUCKETS` has absolute bucket `b` with
    /// `cursor < b < cursor + NUM_BUCKETS` — the mapping is one-to-one
    /// inside the window, so a slot never mixes rotations.
    ends: Vec<[u32; 2]>,
    /// One bit per ring slot: set while the slot's list is non-empty.
    occupied: [u64; WORDS],
    /// The ring's events; unlinked nodes are chained from `free`.
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    /// Events in the ring (excluding `current` and `overflow`).
    ring_len: usize,
    /// The bucket currently being drained, ordered. Also receives any
    /// push whose deadline does not lie strictly ahead of the cursor.
    current: BinaryHeap<Reverse<RefreshEvent>>,
    /// Absolute index (`due / BUCKET_CYCLES`) of the bucket `current`
    /// represents. Monotonically non-decreasing.
    cursor: u64,
    /// Events whose deadline lies beyond the ring window.
    overflow: Vec<RefreshEvent>,
    /// Cached minimum deadline in `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
}

impl Default for RefreshQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl RefreshQueue {
    /// An empty queue with the cursor at cycle 0.
    pub fn new() -> Self {
        RefreshQueue {
            ends: vec![[0; 2]; NUM_BUCKETS],
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            ring_len: 0,
            current: BinaryHeap::new(),
            cursor: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.ring_len + self.current.len() + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules a refresh of `row` at `due`, remembering
    /// `original_due` for drift-free re-queues. `O(1)`.
    pub fn push(&mut self, due: u64, row: u32, original_due: u64) {
        let bucket = due / BUCKET_CYCLES;
        if bucket <= self.cursor {
            // At (or, after pathological delay chains, behind) the drain
            // point: competes with the current bucket's events directly.
            self.current.push(Reverse((due, row, original_due)));
        } else if bucket < self.cursor + NUM_BUCKETS as u64 {
            self.link(bucket, (due, row, original_due));
        } else {
            self.overflow_min = self.overflow_min.min(due);
            self.overflow.push((due, row, original_due));
        }
    }

    /// Appends `event` to the list of ring bucket `bucket`.
    fn link(&mut self, bucket: u64, (due, row, original_due): RefreshEvent) {
        let node = Node {
            due,
            original_due,
            row,
            next: NIL,
        };
        let index = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = self.nodes[index as usize].next;
            self.nodes[index as usize] = node;
            index
        };
        let slot = (bucket % NUM_BUCKETS as u64) as usize;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.ends[slot] = [index, index];
        } else {
            self.nodes[self.ends[slot][1] as usize].next = index;
            self.ends[slot][1] = index;
        }
        self.ring_len += 1;
    }

    /// The earliest queued deadline, without removing it.
    pub fn next_due(&mut self) -> Option<u64> {
        self.settle();
        self.current.peek().map(|Reverse((due, _, _))| *due)
    }

    /// Removes and returns the earliest event **if** its deadline is
    /// strictly before `horizon`; otherwise leaves the queue untouched.
    ///
    /// This is the simulator's drain primitive: "execute everything due
    /// before the next access / end of run".
    pub fn pop_due_before(&mut self, horizon: u64) -> Option<RefreshEvent> {
        self.settle();
        match self.current.peek() {
            Some(&Reverse(event)) if event.0 < horizon => {
                self.current.pop();
                Some(event)
            }
            _ => None,
        }
    }

    /// Ensures `current` holds the earliest events, advancing the cursor
    /// to the next occupied bucket and pulling the overflow level back
    /// into the ring as the window moves. Amortized `O(1)` per event:
    /// the cursor only ever moves forward, and each event is touched
    /// once per level.
    fn settle(&mut self) {
        while self.current.is_empty() {
            if self.ring_len > 0 {
                // Next non-empty bucket within the window. The invariant
                // (slots hold exactly one absolute bucket each) makes the
                // first occupied slot after the cursor's the earliest.
                let start = ((self.cursor + 1) % NUM_BUCKETS as u64) as usize;
                let slot = self.next_occupied(start);
                self.cursor += ((slot + NUM_BUCKETS - start) % NUM_BUCKETS) as u64 + 1;
                self.drain_slot(slot);
                self.migrate_overflow();
            } else if !self.overflow.is_empty() {
                // Ring exhausted: jump the window to the earliest
                // overflow deadline and refill.
                self.cursor = self.overflow_min / BUCKET_CYCLES;
                self.migrate_overflow();
            } else {
                return; // Truly empty.
            }
        }
    }

    /// The first occupied slot at or after `start`, wrapping around the
    /// ring. Only called while the ring holds an event.
    fn next_occupied(&self, start: usize) -> usize {
        let word = start / 64;
        let here = self.occupied[word] & (u64::MAX << (start % 64));
        if here != 0 {
            return word * 64 + here.trailing_zeros() as usize;
        }
        // The last pass revisits `word`, whose bits below `start` lie
        // one full turn ahead.
        (1..=WORDS)
            .map(|i| (word + i) % WORDS)
            .find_map(|w| {
                let bits = self.occupied[w];
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })
            .expect("the ring holds an event")
    }

    /// Moves ring slot `slot`'s events, in push order, into `current`
    /// and returns their nodes to the free list.
    fn drain_slot(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        let [first, last] = self.ends[slot];
        let nodes = &self.nodes;
        let mut at = first;
        let mut drained = 0;
        self.current.extend(std::iter::from_fn(|| {
            let node = nodes.get(at as usize)?;
            at = node.next;
            drained += 1;
            Some(Reverse((node.due, node.row, node.original_due)))
        }));
        self.ring_len -= drained;
        self.nodes[last as usize].next = self.free;
        self.free = first;
    }

    /// Every queued event — the snapshot substrate, whose bytes depend
    /// on this order: `current`'s heap order, then the ring slots in
    /// ascending slot index with each slot's events in push order, then
    /// the overflow level in push order. Rebuilding a queue by
    /// [`RefreshQueue::push`]-ing these into a fresh wheel reproduces
    /// the exact pop order: expiry is canonically
    /// `(due, row, original_due)` ascending regardless of which internal
    /// level (ring, current bucket, overflow) an event sat in when it
    /// was saved.
    pub fn events(&self) -> Vec<RefreshEvent> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.current.iter().map(|Reverse(e)| *e));
        for (word, &bits) in self.occupied.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut at = self.ends[slot][0];
                while let Some(node) = self.nodes.get(at as usize) {
                    out.push((node.due, node.row, node.original_due));
                    at = node.next;
                }
            }
        }
        out.extend_from_slice(&self.overflow);
        out
    }

    /// Moves overflow events that now fit the window into the ring (or
    /// straight into `current` when they land at/behind the cursor).
    fn migrate_overflow(&mut self) {
        let window_end = (self.cursor + NUM_BUCKETS as u64).saturating_mul(BUCKET_CYCLES);
        if self.overflow_min >= window_end {
            return;
        }
        let mut kept = Vec::new();
        let mut kept_min = u64::MAX;
        for event in std::mem::take(&mut self.overflow) {
            if event.0 < window_end {
                let bucket = event.0 / BUCKET_CYCLES;
                if bucket <= self.cursor {
                    self.current.push(Reverse(event));
                } else {
                    self.link(bucket, event);
                }
            } else {
                kept_min = kept_min.min(event.0);
                kept.push(event);
            }
        }
        self.overflow = kept;
        self.overflow_min = kept_min;
    }
}

impl vrl_snap::Snapshot for RefreshQueue {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        self.events().save(enc);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        let events = Vec::<RefreshEvent>::load(dec)?;
        let mut q = RefreshQueue::new();
        for (due, row, original_due) in events {
            q.push(due, row, original_due);
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut RefreshQueue) -> Vec<RefreshEvent> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_due_before(u64::MAX) {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_deadline_then_row_order() {
        let mut q = RefreshQueue::new();
        q.push(500, 3, 500);
        q.push(100, 7, 100);
        q.push(500, 1, 500);
        q.push(90_000_000, 2, 90_000_000); // ~90 ms out, deep in the ring
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_due(), Some(100));
        let order = drain_all(&mut q);
        assert_eq!(
            order,
            vec![
                (100, 7, 100),
                (500, 1, 500),
                (500, 3, 500),
                (90_000_000, 2, 90_000_000)
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut q = RefreshQueue::new();
        q.push(64, 0, 64);
        assert_eq!(q.pop_due_before(64), None, "due == horizon must not pop");
        assert_eq!(q.pop_due_before(65), Some((64, 0, 64)));
    }

    #[test]
    fn requeue_at_or_behind_cursor_is_ordered() {
        let mut q = RefreshQueue::new();
        q.push(10, 0, 10);
        q.push(BUCKET_CYCLES * 5 + 3, 1, BUCKET_CYCLES * 5 + 3);
        // Drain row 0, advance the cursor to bucket 5, then postpone-style
        // re-queue row 0 into the already-passed region.
        assert_eq!(q.pop_due_before(u64::MAX), Some((10, 0, 10)));
        assert_eq!(q.next_due(), Some(BUCKET_CYCLES * 5 + 3));
        q.push(BUCKET_CYCLES * 5 + 1, 0, 10);
        assert_eq!(
            q.pop_due_before(u64::MAX),
            Some((BUCKET_CYCLES * 5 + 1, 0, 10))
        );
        assert_eq!(
            q.pop_due_before(u64::MAX),
            Some((BUCKET_CYCLES * 5 + 3, 1, BUCKET_CYCLES * 5 + 3))
        );
    }

    #[test]
    fn overflow_level_round_trips() {
        let window = NUM_BUCKETS as u64 * BUCKET_CYCLES;
        let mut q = RefreshQueue::new();
        q.push(window * 3 + 17, 9, window * 3 + 17); // far beyond the window
        q.push(5, 0, 5);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due_before(u64::MAX), Some((5, 0, 5)));
        // The overflow event is found after the ring empties.
        assert_eq!(
            q.pop_due_before(u64::MAX),
            Some((window * 3 + 17, 9, window * 3 + 17))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_migrates_as_the_window_advances() {
        let window = NUM_BUCKETS as u64 * BUCKET_CYCLES;
        let mut q = RefreshQueue::new();
        // One event per half-window keeps the cursor walking forward.
        for i in 0..6u64 {
            q.push(i * window / 2 + 1, i as u32, 0);
        }
        let order = drain_all(&mut q);
        let dues: Vec<u64> = order.iter().map(|e| e.0).collect();
        assert!(dues.windows(2).all(|w| w[0] <= w[1]), "{dues:?}");
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn snapshot_mid_drain_reproduces_pop_order() {
        use vrl_snap::{Decoder, Encoder, Snapshot};
        let mut q = RefreshQueue::new();
        let period = 64_000_000u64;
        for row in 0..32u32 {
            let offset = (row as u64).wrapping_mul(2654435761) % period;
            q.push(offset, row, offset);
        }
        // Advance mid-stream (cursor moves, some events re-queued late,
        // one pushed past the window).
        for _ in 0..40 {
            let (_, row, orig) = q.pop_due_before(u64::MAX).expect("non-empty");
            q.push(orig + period, row, orig + period);
        }
        q.push(NUM_BUCKETS as u64 * BUCKET_CYCLES * 2 + 5, 99, 1);

        let mut enc = Encoder::new();
        q.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut restored = RefreshQueue::load(&mut dec).expect("loads");
        dec.finish().expect("fully consumed");

        assert_eq!(restored.len(), q.len());
        assert_eq!(drain_all(&mut restored), drain_all(&mut q));
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        // Steady-state schedule: pop an event, re-push one period later,
        // exactly like the simulator's drain loop.
        let mut q = RefreshQueue::new();
        let period = 64_000_000u64; // 64 ms
        for row in 0..64u32 {
            let offset = (row as u64).wrapping_mul(2654435761) % period;
            q.push(offset, row, offset);
        }
        let mut last_due = 0;
        for _ in 0..1024 {
            let (due, row, orig) = q.pop_due_before(u64::MAX).expect("non-empty");
            assert!(due >= last_due, "order violated: {due} < {last_due}");
            last_due = due;
            q.push(orig + period, row, orig + period);
        }
        assert_eq!(q.len(), 64);
    }
}
