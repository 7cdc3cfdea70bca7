//! Exporters: Chrome `trace_event` JSON (loadable in Perfetto /
//! `chrome://tracing`) and stream-level metadata.
//!
//! Every recorded event becomes an instant event (`"ph":"i"`) with
//! `ts` = simulation cycle, `pid` = 0, and `tid` = bank, so each bank
//! renders as its own track. Bank tracks are labelled via `"ph":"M"`
//! `thread_name` metadata records.

use crate::event::{Event, EventKind};
use crate::recorder::NO_ROW;

/// Render events as a complete Chrome `trace_event` JSON document.
///
/// `label`/`policy` are attached to every event's `args` so filtering in
/// the viewer works; `dropped` is recorded in the document-level
/// `otherData` block.
pub fn chrome_trace_json(events: &[Event], label: &str, policy: &str, dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut banks: Vec<u32> = events.iter().map(|e| e.bank).collect();
    banks.sort_unstable();
    banks.dedup();
    for bank in &banks {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{bank},\
             \"args\":{{\"name\":\"bank {bank}\"}}}}"
        ));
    }
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        push_event(&mut out, event, policy);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{\"label\":");
    serde::write_json_string(label, &mut out);
    out.push_str(",\"policy\":");
    serde::write_json_string(policy, &mut out);
    out.push_str(&format!(
        ",\"dropped\":{dropped},\"events\":{}}}}}",
        events.len()
    ));
    out
}

fn push_event(out: &mut String, event: &Event, policy: &str) {
    out.push_str("{\"name\":");
    serde::write_json_string(event.kind.name(), out);
    out.push_str(&format!(
        ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"cat\":\"vrl\",\"args\":{{",
        event.cycle, event.bank
    ));
    if event.row != NO_ROW {
        out.push_str(&format!("\"row\":{},", event.row));
    }
    out.push_str(&format!("\"seq\":{},\"policy\":", event.seq));
    serde::write_json_string(policy, out);
    match event.kind {
        EventKind::GuardDegrade(step) => {
            out.push_str(&format!(",\"step\":\"{step:?}\""));
        }
        EventKind::FaultInjected { dropped } => {
            out.push_str(&format!(",\"dropped\":{dropped}"));
        }
        EventKind::QueueStall { depth } => {
            out.push_str(&format!(",\"depth\":{depth}"));
        }
        EventKind::JobQueued { depth } => {
            out.push_str(&format!(",\"depth\":{depth}"));
        }
        EventKind::JobCompleted { cached } => {
            out.push_str(&format!(",\"cached\":{cached}"));
        }
        EventKind::JobShed { reason } => {
            out.push_str(&format!(",\"reason\":\"{}\"", reason.name()));
        }
        _ => {}
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DegradeStep;

    fn ev(seq: u64, cycle: u64, bank: u32, row: u32, kind: EventKind) -> Event {
        Event {
            seq,
            cycle,
            bank,
            row,
            kind,
        }
    }

    #[test]
    fn export_emits_metadata_and_instants() {
        let events = vec![
            ev(0, 5, 0, 1, EventKind::Activate),
            ev(
                1,
                9,
                1,
                70,
                EventKind::GuardDegrade(DegradeStep::MprsfHalved(1)),
            ),
            ev(2, 11, 0, NO_ROW, EventKind::QueueStall { depth: 4 }),
        ];
        let json = chrome_trace_json(&events, "unit", "vrl", 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"name\":\"Activate\""));
        assert!(json.contains("\"step\":\"MprsfHalved(1)\""));
        assert!(json.contains("\"depth\":4"));
        assert!(json.contains("\"dropped\":2"));
        // Row-less events omit the row arg entirely.
        assert!(!json.contains(&format!("\"row\":{NO_ROW}")));
    }
}
