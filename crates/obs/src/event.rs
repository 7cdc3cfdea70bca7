//! The structured event model: typed simulation events with cycle
//! timestamps, bank/row coordinates, and per-stream sequence numbers.

use vrl_dram_sim::policy::DegradeAction;
use vrl_dram_sim::timing::RefreshLatency;

/// What one degradation-ladder step changed — [`DegradeAction`] with the
/// retention-bin payload flattened to its period so events carry plain
/// integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeStep {
    /// The row's MPRSF was halved; carries the new value.
    MprsfHalved(u8),
    /// The row was re-binned; carries the new period in ms.
    BinDemoted(u32),
    /// The row was already at the most conservative configuration.
    AtFloor,
}

impl From<DegradeAction> for DegradeStep {
    fn from(action: DegradeAction) -> Self {
        match action {
            DegradeAction::MprsfHalved(m) => DegradeStep::MprsfHalved(m),
            DegradeAction::BinDemoted(bin) => DegradeStep::BinDemoted(bin.period_ms() as u32),
            DegradeAction::AtFloor => DegradeStep::AtFloor,
        }
    }
}

impl DegradeStep {
    /// Severity rank on the degradation ladder: strictly increasing as a
    /// row moves toward the floor (larger MPRSF → smaller rank; longer
    /// demoted period → smaller rank; `AtFloor` is the top). A valid
    /// ladder emits a non-decreasing rank sequence per row — the
    /// monotonicity the fault-injection tests assert on the event
    /// stream.
    pub fn severity_rank(self) -> u64 {
        match self {
            // MPRSF is at most 2^nbits − 1 < 256.
            DegradeStep::MprsfHalved(m) => 256 - u64::from(m),
            // Periods shrink toward the 64 ms floor; 1_000_000 ms is far
            // above any bin.
            DegradeStep::BinDemoted(period_ms) => 256 + (1_000_000 - u64::from(period_ms)),
            DegradeStep::AtFloor => u64::MAX,
        }
    }
}

/// The event vocabulary shared by every front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A row activation (row-miss access).
    Activate,
    /// A completed full-latency refresh.
    RefreshFull,
    /// A completed partial-latency refresh.
    RefreshPartial,
    /// A due refresh yielded to demand and was re-queued.
    RefreshPostponed,
    /// A refresh executed early on an idle bank.
    RefreshPullIn,
    /// A guard background scrub read.
    GuardScrub,
    /// One degradation-ladder step applied by the guard.
    GuardDegrade(DegradeStep),
    /// A fault injector dropped (`true`) or delayed (`false`) a refresh
    /// command.
    FaultInjected {
        /// Whether the command was dropped rather than delayed.
        dropped: bool,
    },
    /// The request queue was full while an arrival waited; carries the
    /// queue occupancy.
    QueueStall {
        /// Queue occupancy at the stalled cycle.
        depth: u32,
    },
    /// A served experiment job was validated and enqueued. For serve
    /// events, `cycle` carries the job id and `row` is the row-less
    /// sentinel.
    JobQueued {
        /// Queue depth (queued + running) right after the enqueue.
        depth: u32,
    },
    /// A served job started executing on a pool worker, or a
    /// result-cache hit started being answered on its connection
    /// thread.
    JobStarted,
    /// A served job finished and its result frame was delivered.
    JobCompleted {
        /// Whether the result came from the content-addressed result
        /// cache rather than a fresh simulation.
        cached: bool,
    },
    /// A served job panicked; the worker survived and the job was
    /// quarantined with an error frame.
    JobQuarantined,
    /// The server shed a request at admission: the connection or job
    /// queue was full, a request line overran the byte limit, or a
    /// connection idled past its read timeout. The request was rejected
    /// with a typed frame instead of being buffered unboundedly.
    JobShed {
        /// Why the request was shed (see
        /// [`ShedReason`] for the reject-frame vocabulary).
        reason: ShedReason,
    },
    /// A disk-tier artifact failed its checksum (or was truncated) on
    /// load; the file was renamed `*.quar` and the artifact rebuilt —
    /// corrupt bytes are never served.
    ArtifactQuarantined,
}

/// Why the server shed a request at admission. Mirrors the `reject`
/// field of the wire protocol's typed reject frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Connection or job-queue capacity was exhausted.
    Busy,
    /// A request line exceeded the configured byte limit.
    LineTooLong,
    /// The connection idled past its read timeout.
    Timeout,
}

impl ShedReason {
    /// The wire name — the `reject` field of the reject frame.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Busy => "busy",
            ShedReason::LineTooLong => "line_too_long",
            ShedReason::Timeout => "timeout",
        }
    }
}

impl EventKind {
    /// The kind's display name — the Chrome trace event `name` field.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Activate => "Activate",
            EventKind::RefreshFull => "RefreshFull",
            EventKind::RefreshPartial => "RefreshPartial",
            EventKind::RefreshPostponed => "RefreshPostponed",
            EventKind::RefreshPullIn => "RefreshPullIn",
            EventKind::GuardScrub => "GuardScrub",
            EventKind::GuardDegrade(_) => "GuardDegrade",
            EventKind::FaultInjected { .. } => "FaultInjected",
            EventKind::QueueStall { .. } => "QueueStall",
            EventKind::JobQueued { .. } => "JobQueued",
            EventKind::JobStarted => "JobStarted",
            EventKind::JobCompleted { .. } => "JobCompleted",
            EventKind::JobQuarantined => "JobQuarantined",
            EventKind::JobShed { .. } => "JobShed",
            EventKind::ArtifactQuarantined => "ArtifactQuarantined",
        }
    }

    /// The kind for a completed refresh of the given latency class.
    pub fn refresh(kind: RefreshLatency) -> Self {
        match kind {
            RefreshLatency::Full => EventKind::RefreshFull,
            RefreshLatency::Partial => EventKind::RefreshPartial,
        }
    }
}

/// One recorded simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Position in the recording stream (0-based, gap-free until the
    /// ring starts dropping).
    pub seq: u64,
    /// Simulation cycle the event completed (or was decided) at.
    pub cycle: u64,
    /// Bank the row belongs to (0 on single-bank front ends).
    pub bank: u32,
    /// Global row index (`u32::MAX` for row-less events such as queue
    /// stalls).
    pub row: u32,
    /// What happened.
    pub kind: EventKind,
}

impl vrl_snap::Snapshot for DegradeStep {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        match *self {
            DegradeStep::MprsfHalved(m) => {
                enc.put_u8(0);
                enc.put_u8(m);
            }
            DegradeStep::BinDemoted(period_ms) => {
                enc.put_u8(1);
                enc.put_u32(period_ms);
            }
            DegradeStep::AtFloor => enc.put_u8(2),
        }
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        match dec.take_u8()? {
            0 => Ok(DegradeStep::MprsfHalved(dec.take_u8()?)),
            1 => Ok(DegradeStep::BinDemoted(dec.take_u32()?)),
            2 => Ok(DegradeStep::AtFloor),
            tag => Err(vrl_snap::SnapError::Malformed {
                what: format!("unknown DegradeStep tag {tag}"),
            }),
        }
    }
}

impl vrl_snap::Snapshot for EventKind {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        match *self {
            EventKind::Activate => enc.put_u8(0),
            EventKind::RefreshFull => enc.put_u8(1),
            EventKind::RefreshPartial => enc.put_u8(2),
            EventKind::RefreshPostponed => enc.put_u8(3),
            EventKind::RefreshPullIn => enc.put_u8(4),
            EventKind::GuardScrub => enc.put_u8(5),
            EventKind::GuardDegrade(step) => {
                enc.put_u8(6);
                step.save(enc);
            }
            EventKind::FaultInjected { dropped } => {
                enc.put_u8(7);
                dropped.save(enc);
            }
            EventKind::QueueStall { depth } => {
                enc.put_u8(8);
                enc.put_u32(depth);
            }
            // Tags 9-12 are reserved: they named a retired job
            // supervisor's events and decode as malformed.
            EventKind::JobQueued { depth } => {
                enc.put_u8(13);
                enc.put_u32(depth);
            }
            EventKind::JobStarted => enc.put_u8(14),
            EventKind::JobCompleted { cached } => {
                enc.put_u8(15);
                cached.save(enc);
            }
            EventKind::JobQuarantined => enc.put_u8(16),
            EventKind::JobShed { reason } => {
                enc.put_u8(17);
                enc.put_u8(match reason {
                    ShedReason::Busy => 0,
                    ShedReason::LineTooLong => 1,
                    ShedReason::Timeout => 2,
                });
            }
            EventKind::ArtifactQuarantined => enc.put_u8(18),
        }
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(match dec.take_u8()? {
            0 => EventKind::Activate,
            1 => EventKind::RefreshFull,
            2 => EventKind::RefreshPartial,
            3 => EventKind::RefreshPostponed,
            4 => EventKind::RefreshPullIn,
            5 => EventKind::GuardScrub,
            6 => EventKind::GuardDegrade(DegradeStep::load(dec)?),
            7 => EventKind::FaultInjected {
                dropped: bool::load(dec)?,
            },
            8 => EventKind::QueueStall {
                depth: dec.take_u32()?,
            },
            13 => EventKind::JobQueued {
                depth: dec.take_u32()?,
            },
            14 => EventKind::JobStarted,
            15 => EventKind::JobCompleted {
                cached: bool::load(dec)?,
            },
            16 => EventKind::JobQuarantined,
            17 => EventKind::JobShed {
                reason: match dec.take_u8()? {
                    0 => ShedReason::Busy,
                    1 => ShedReason::LineTooLong,
                    2 => ShedReason::Timeout,
                    tag => {
                        return Err(vrl_snap::SnapError::Malformed {
                            what: format!("unknown ShedReason tag {tag}"),
                        })
                    }
                },
            },
            18 => EventKind::ArtifactQuarantined,
            tag => {
                return Err(vrl_snap::SnapError::Malformed {
                    what: format!("unknown EventKind tag {tag}"),
                })
            }
        })
    }
}

impl vrl_snap::Snapshot for Event {
    fn save(&self, enc: &mut vrl_snap::Encoder) {
        enc.put_u64(self.seq);
        enc.put_u64(self.cycle);
        enc.put_u32(self.bank);
        enc.put_u32(self.row);
        self.kind.save(enc);
    }

    fn load(dec: &mut vrl_snap::Decoder<'_>) -> Result<Self, vrl_snap::SnapError> {
        Ok(Event {
            seq: dec.take_u64()?,
            cycle: dec.take_u64()?,
            bank: dec.take_u32()?,
            row: dec.take_u32()?,
            kind: EventKind::load(dec)?,
        })
    }
}

impl Event {
    /// The merge key events are ordered by across worker streams:
    /// `(cycle, bank, seq)`. Sorting stably by this key makes merged
    /// streams independent of pool shape (see
    /// `tests/trace_determinism.rs`).
    pub fn merge_key(&self) -> (u64, u32, u64) {
        (self.cycle, self.bank, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_ranks_follow_the_ladder() {
        let ladder = [
            DegradeStep::MprsfHalved(3),
            DegradeStep::MprsfHalved(1),
            DegradeStep::MprsfHalved(0),
            DegradeStep::BinDemoted(192),
            DegradeStep::BinDemoted(128),
            DegradeStep::BinDemoted(64),
            DegradeStep::AtFloor,
        ];
        for pair in ladder.windows(2) {
            assert!(
                pair[0].severity_rank() < pair[1].severity_rank(),
                "{pair:?} must be strictly increasing"
            );
        }
    }

    #[test]
    fn kinds_have_stable_names() {
        assert_eq!(
            EventKind::refresh(RefreshLatency::Full).name(),
            "RefreshFull"
        );
        assert_eq!(
            EventKind::refresh(RefreshLatency::Partial).name(),
            "RefreshPartial"
        );
        assert_eq!(
            EventKind::GuardDegrade(DegradeStep::AtFloor).name(),
            "GuardDegrade"
        );
    }

    #[test]
    fn event_kinds_round_trip_through_the_codec() {
        use vrl_snap::{Decoder, Encoder, SnapError, Snapshot as _};
        let kinds = [
            EventKind::Activate,
            EventKind::RefreshFull,
            EventKind::RefreshPartial,
            EventKind::RefreshPostponed,
            EventKind::RefreshPullIn,
            EventKind::GuardScrub,
            EventKind::GuardDegrade(DegradeStep::MprsfHalved(3)),
            EventKind::GuardDegrade(DegradeStep::BinDemoted(192)),
            EventKind::GuardDegrade(DegradeStep::AtFloor),
            EventKind::FaultInjected { dropped: true },
            EventKind::QueueStall { depth: 9 },
            EventKind::JobQueued { depth: 3 },
            EventKind::JobStarted,
            EventKind::JobCompleted { cached: true },
            EventKind::JobQuarantined,
            EventKind::JobShed {
                reason: ShedReason::Busy,
            },
            EventKind::JobShed {
                reason: ShedReason::LineTooLong,
            },
            EventKind::JobShed {
                reason: ShedReason::Timeout,
            },
            EventKind::ArtifactQuarantined,
        ];
        for kind in kinds {
            let event = Event {
                seq: 7,
                cycle: 1234,
                bank: 2,
                row: 70,
                kind,
            };
            let mut enc = Encoder::new();
            event.save(&mut enc);
            let bytes = enc.into_bytes();
            let back = Event::load(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(back, event, "{kind:?} must round-trip");
        }
        // An unknown or reserved tag is a typed error, not a panic.
        for tag in [9, 10, 11, 12, 200] {
            assert!(
                matches!(
                    EventKind::load(&mut Decoder::new(&[tag])),
                    Err(SnapError::Malformed { .. })
                ),
                "tag {tag} must be rejected"
            );
        }
    }

    #[test]
    fn degrade_steps_convert_from_actions() {
        use vrl_retention::binning::RefreshBin;
        assert_eq!(
            DegradeStep::from(DegradeAction::MprsfHalved(2)),
            DegradeStep::MprsfHalved(2)
        );
        assert_eq!(
            DegradeStep::from(DegradeAction::BinDemoted(RefreshBin::Ms192)),
            DegradeStep::BinDemoted(192)
        );
        assert_eq!(
            DegradeStep::from(DegradeAction::AtFloor),
            DegradeStep::AtFloor
        );
    }
}
