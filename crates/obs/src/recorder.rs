//! The [`Recorder`]: a [`SimObserver`] that captures typed events into a
//! bounded [`EventRing`], plus the cross-worker merge rules.

use vrl_dram_sim::policy::DegradeAction;
use vrl_dram_sim::sim::SimObserver;
use vrl_dram_sim::timing::RefreshLatency;

use crate::event::{Event, EventKind};
use crate::ring::EventRing;

/// Row index used for events that have no row (queue stalls).
pub const NO_ROW: u32 = u32::MAX;

/// One worker's finished recording: the retained events plus stream
/// metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventStream {
    /// Free-form stream label (workload name, worker index, …).
    pub label: String,
    /// Refresh policy the stream was recorded under.
    pub policy: String,
    /// Retained events, in recording order.
    pub events: Vec<Event>,
    /// Events that overflowed the ring.
    pub dropped: u64,
}

/// A `SimObserver` that records every hook invocation as a typed event.
///
/// The recorder maps global row indices to banks with a fixed
/// `rows_per_bank` divisor (pass `u32::MAX` — or use
/// [`Recorder::single_bank`] — for single-bank front ends).
#[derive(Debug)]
pub struct Recorder {
    ring: EventRing,
    rows_per_bank: u32,
    label: String,
    policy: String,
}

impl Recorder {
    /// A recorder for a multi-bank front end where global row `r` lives
    /// in bank `r / rows_per_bank`.
    pub fn new(label: &str, policy: &str, rows_per_bank: u32) -> Self {
        Recorder {
            ring: EventRing::default(),
            rows_per_bank: rows_per_bank.max(1),
            label: label.to_string(),
            policy: policy.to_string(),
        }
    }

    /// A recorder for a single-bank front end (every event lands in
    /// bank 0).
    pub fn single_bank(label: &str, policy: &str) -> Self {
        Recorder::new(label, policy, u32::MAX)
    }

    fn bank_of(&self, row: u32) -> u32 {
        if row == NO_ROW {
            0
        } else {
            row / self.rows_per_bank
        }
    }

    fn record(&mut self, cycle: u64, row: u32, kind: EventKind) {
        let bank = self.bank_of(row);
        self.ring.push(cycle, bank, row, kind);
    }

    /// Events recorded so far (retained prefix only).
    pub fn events(&self) -> &[Event] {
        self.ring.events()
    }

    /// Events that overflowed the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Serialize the mutable recording state (the ring). The label,
    /// policy, and bank geometry are construction parameters and are
    /// expected to be rebuilt from the run configuration on resume.
    pub fn save_state(&self, enc: &mut vrl_snap::Encoder) {
        use vrl_snap::Snapshot as _;
        self.ring.save(enc);
    }

    /// Restore the recording state captured by [`Recorder::save_state`]
    /// into this (freshly constructed) recorder.
    pub fn restore_state(
        &mut self,
        dec: &mut vrl_snap::Decoder<'_>,
    ) -> Result<(), vrl_snap::SnapError> {
        use vrl_snap::Snapshot as _;
        self.ring = EventRing::load(dec)?;
        Ok(())
    }

    /// Finish recording and package the stream.
    pub fn finish(self) -> EventStream {
        let dropped = self.ring.dropped();
        EventStream {
            label: self.label,
            policy: self.policy,
            events: self.ring.into_events(),
            dropped,
        }
    }
}

impl SimObserver for Recorder {
    fn on_refresh(&mut self, row: u32, kind: RefreshLatency, cycle: u64) {
        self.record(cycle, row, EventKind::refresh(kind));
    }

    fn on_activate(&mut self, row: u32, cycle: u64) {
        self.record(cycle, row, EventKind::Activate);
    }

    fn on_refresh_postponed(&mut self, row: u32, cycle: u64) {
        self.record(cycle, row, EventKind::RefreshPostponed);
    }

    fn on_refresh_pull_in(&mut self, row: u32, cycle: u64) {
        self.record(cycle, row, EventKind::RefreshPullIn);
    }

    fn on_scrub(&mut self, row: u32, cycle: u64) {
        self.record(cycle, row, EventKind::GuardScrub);
    }

    fn on_degrade(&mut self, row: u32, action: DegradeAction, cycle: u64) {
        self.record(cycle, row, EventKind::GuardDegrade(action.into()));
    }

    fn on_refresh_fault(&mut self, row: u32, dropped: bool, cycle: u64) {
        self.record(cycle, row, EventKind::FaultInjected { dropped });
    }

    fn on_queue_stall(&mut self, cycle: u64, depth: usize) {
        self.record(
            cycle,
            NO_ROW,
            EventKind::QueueStall {
                depth: depth.min(u32::MAX as usize) as u32,
            },
        );
    }
}

/// Merge per-worker streams into one deterministic stream.
///
/// Events are concatenated in stream order, then stably sorted by
/// [`Event::merge_key`] — `(cycle, bank, seq)`. Because each worker's
/// `seq` is gap-free and per-bank events come from exactly one worker in
/// the repo's experiment engine, the merged order is independent of how
/// jobs were packed onto workers.
pub fn merge_streams(streams: &[EventStream]) -> Vec<Event> {
    let mut merged: Vec<Event> = streams
        .iter()
        .flat_map(|s| s.events.iter().copied())
        .collect();
    merged.sort_by_key(Event::merge_key);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_maps_rows_to_banks() {
        let mut rec = Recorder::new("t", "vrl", 64);
        rec.on_activate(10, 5);
        rec.on_activate(70, 6);
        rec.on_queue_stall(7, 3);
        let events = rec.events();
        assert_eq!(events[0].bank, 0);
        assert_eq!(events[1].bank, 1);
        assert_eq!(events[2].bank, 0);
        assert_eq!(events[2].row, NO_ROW);
        assert_eq!(events[2].kind, EventKind::QueueStall { depth: 3 });
    }

    #[test]
    fn merge_orders_by_cycle_then_bank_then_seq() {
        let mut a = Recorder::new("a", "vrl", 64);
        a.on_activate(0, 100);
        a.on_refresh(1, RefreshLatency::Full, 50);
        let mut b = Recorder::new("b", "vrl", 64);
        b.on_activate(64, 50);
        let merged = merge_streams(&[a.finish(), b.finish()]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].cycle, 50);
        assert_eq!(merged[0].bank, 0);
        assert_eq!(merged[1].cycle, 50);
        assert_eq!(merged[1].bank, 1);
        assert_eq!(merged[2].cycle, 100);
    }
}
