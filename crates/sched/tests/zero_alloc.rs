//! Steady-state allocation audit for the SoA scheduling hot loop.
//!
//! A counting global allocator wraps the system allocator; the test
//! warms the scheduler up (growing every queue, buffer, wheel slot, and
//! histogram to its working capacity), snapshots the allocation
//! counter, runs a further demand-plus-refresh phase identical in shape
//! to the warmup, and demands **zero** new allocations: the hot loop's
//! bank state is flat arrays, the `tFAW` window is a fixed ring, the
//! timing wheel recycles drained slot buffers through its scratch swap,
//! and request queues/buffers reuse their capacity.
//!
//! The refresh period is pinned to exactly half the wheel's ring window
//! (`2^27` cycles), so every row's deadlines alternate between two ring
//! slots forever; after two periods both slots (and the drain scratch)
//! carry circulating capacity and wheel pushes stop allocating. The
//! audit runs one channel, then a two-channel DIMM whose lanes park
//! each other's records. One test per binary: the counter is
//! process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vrl_dram_sim::policy::AutoRefresh;
use vrl_dram_sim::sim::NullObserver;
use vrl_sched::{SchedConfig, SchedCursor, Scheduler};
use vrl_trace::{Op, TraceRecord};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Identical burst shapes in the warmup and measured phases, so every
/// capacity the measured phase needs was already grown during warmup.
fn bursts(from_cycle: u64, until_cycle: u64, rows: u32) -> Vec<TraceRecord> {
    const GAP: u64 = 1 << 22;
    const BURST_LEN: u64 = 64;
    let mut trace = Vec::new();
    let mut start = from_cycle;
    let mut n = 0u64;
    while start < until_cycle {
        for i in 0..BURST_LEN {
            let idx = (n * BURST_LEN + i) % rows as u64;
            trace.push(TraceRecord::new(start + i, Op::Read, idx as u32));
        }
        n += 1;
        start += GAP;
    }
    trace
}

/// Runs `config` through a warmup span and a measured span of the same
/// burst shape, and demands that the measured span allocates nothing.
fn assert_steady_state_is_allocation_free(config: SchedConfig, what: &str) {
    // Half the ring window exactly: deadlines alternate between two
    // wheel slots per row set (see the module docs).
    const PERIOD_MS: f64 = 134.217728;
    const PERIOD: u64 = 1 << 27;
    // Two full periods of warmup cycle every wheel slot the run will
    // ever touch; measure over the third period.
    const WARMUP: u64 = 2 * PERIOD + (PERIOD >> 2);
    const END: u64 = 4 * PERIOD;

    let total_rows = config.total_rows();
    assert_eq!(config.timing.ms_to_cycles(PERIOD_MS), PERIOD);

    let trace = bursts(0, END, total_rows);
    let mut sched = Scheduler::new(config, AutoRefresh::new(PERIOD_MS)).expect("config");
    let mut cursor = SchedCursor::new();
    let mut records = trace.into_iter().take_while(|r| r.cycle < END).peekable();

    let paused = sched
        .run_span_observed(&mut cursor, &mut records, END, WARMUP, &mut NullObserver)
        .expect("warmup span");
    assert!(paused, "{what}: warmup must stop mid-run");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sched
        .run_span_observed(&mut cursor, &mut records, END, u64::MAX, &mut NullObserver)
        .expect("measured span");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{what}: the steady-state scheduling loop must not allocate"
    );

    // The run did real work after the warmup boundary.
    let stats = sched.finish(END);
    assert!(stats.sim.accesses > 0, "{what}: no accesses");
    assert!(
        stats.sim.total_refreshes() >= 2 * u64::from(total_rows),
        "{what}: too few refreshes"
    );
}

#[test]
fn steady_state_scheduling_does_not_allocate() {
    let one_channel = SchedConfig::with_dimm_geometry(1, 1, 2, 32).expect("geometry");
    // Consecutive row indices alternate channels, so each lane's fill
    // parks the other lane's records while it looks for its own.
    let two_channels = SchedConfig::with_dimm_geometry(2, 1, 2, 32).expect("geometry");
    for (config, what) in [(one_channel, "1 channel"), (two_channels, "2 channels")] {
        let config = config.with_parallelism(false).with_burst_refresh();
        assert_steady_state_is_allocation_free(config, what);
    }
}
