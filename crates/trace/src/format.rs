//! Text trace format: one record per line, `<cycle> <R|W> <row>`.
//!
//! ```text
//! # comment lines and blank lines are ignored
//! 120 R 4071
//! 135 W 4071
//! ```

use std::fmt::Write as _;
use std::str::FromStr;

use crate::record::{Op, TraceRecord};

/// An error while parsing a text trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseTraceError {}

/// Parses a text trace.
///
/// # Errors
///
/// Returns [`ParseTraceError`] for a malformed line; records must be
/// sorted by cycle (enforced).
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let mut records = Vec::new();
    let mut last_cycle = 0u64;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let cycle = parts
            .next()
            .and_then(|s| u64::from_str(s).ok())
            .ok_or_else(|| ParseTraceError {
                line: line_no,
                reason: "bad cycle field".into(),
            })?;
        let op = parts
            .next()
            .and_then(|s| s.chars().next())
            .and_then(Op::from_tag)
            .ok_or_else(|| ParseTraceError {
                line: line_no,
                reason: "bad op field".into(),
            })?;
        let row = parts
            .next()
            .and_then(|s| u32::from_str(s).ok())
            .ok_or_else(|| ParseTraceError {
                line: line_no,
                reason: "bad row field".into(),
            })?;
        if parts.next().is_some() {
            return Err(ParseTraceError {
                line: line_no,
                reason: "trailing fields".into(),
            });
        }
        if cycle < last_cycle {
            return Err(ParseTraceError {
                line: line_no,
                reason: format!("cycles must be non-decreasing ({cycle} < {last_cycle})"),
            });
        }
        last_cycle = cycle;
        records.push(TraceRecord::new(cycle, op, row));
    }
    Ok(records)
}

/// Serializes records into the text format.
pub fn write_trace<'a, I: IntoIterator<Item = &'a TraceRecord>>(records: I) -> String {
    let mut out = String::new();
    for r in records {
        writeln!(out, "{} {} {}", r.cycle, r.op.tag(), r.row).expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let records = vec![
            TraceRecord::new(10, Op::Read, 5),
            TraceRecord::new(12, Op::Write, 9),
            TraceRecord::new(12, Op::Read, 5),
        ];
        let text = write_trace(&records);
        assert_eq!(parse_trace(&text).expect("parses"), records);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# header\n\n10 R 5\n  # indented comment\n11 W 6\n";
        let records = parse_trace(text).expect("parses");
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn rejects_bad_fields() {
        assert!(parse_trace("x R 5").is_err());
        assert!(parse_trace("10 Q 5").is_err());
        assert!(parse_trace("10 R x").is_err());
        assert!(parse_trace("10 R 5 extra").is_err());
    }

    #[test]
    fn rejects_unsorted_cycles() {
        let err = parse_trace("10 R 5\n5 R 6").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("non-decreasing"));
    }

    #[test]
    fn error_display_mentions_line() {
        let err = parse_trace("nope").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
