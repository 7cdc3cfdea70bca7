//! Bounded line reading over a socket — shared by the server's
//! connection handlers and the [`Client`](crate::client::Client).
//!
//! `BufReader::lines` buffers an arbitrarily long line before returning
//! it, so a client (or a hostile peer) streaming bytes with no newline
//! grows the buffer without bound. [`LineReader`] caps the buffered
//! bytes and turns the three socket outcomes the protocol cares about —
//! end of stream, over-long line, read timeout — into typed variants
//! instead of buried `io::Error`s or EOF-as-empty-string.

use std::io::{self, Read, Write};

/// A [`LineReader`]'s first buffer size, and how far past `max_bytes`
/// its buffer may grow.
const CHUNK: usize = 4096;

/// Writes `frames`, each followed by `\n`, with one `write_all`. On a
/// `TCP_NODELAY` socket every write can leave as its own segment, so a
/// request or a burst of response frames goes out in one piece rather
/// than two writes per frame.
///
/// # Errors
///
/// The socket's write error.
pub fn write_frames<W: Write, S: AsRef<str>>(out: &mut W, frames: &[S]) -> io::Result<()> {
    let len = frames.iter().map(|f| f.as_ref().len() + 1).sum();
    let mut bytes = Vec::with_capacity(len);
    for frame in frames {
        bytes.extend_from_slice(frame.as_ref().as_bytes());
        bytes.push(b'\n');
    }
    out.write_all(&bytes)
}

/// The outcome of one bounded line read.
#[derive(Debug)]
pub enum LineOutcome {
    /// One complete line, newline stripped. Bytes are decoded lossily —
    /// garbage on the wire becomes a parse error upstream, never a
    /// panic.
    Line(String),
    /// The peer closed the stream at a line boundary (clean EOF).
    Eof,
    /// The line exceeded the byte limit before a newline arrived.
    TooLong,
    /// The socket's read timeout expired while waiting for bytes.
    TimedOut,
    /// Any other socket error (reset, broken pipe, …).
    Err(io::Error),
}

/// A line reader with a hard cap on buffered bytes.
///
/// `buf[start..end]` holds the bytes read but not yet returned, and
/// `buf[start..scanned]` the part of them already searched for a
/// newline, so each byte is scanned once however many reads a line
/// takes and however many lines one read carries.
#[derive(Debug)]
pub struct LineReader<R> {
    source: R,
    buf: Vec<u8>,
    start: usize,
    scanned: usize,
    end: usize,
    max_bytes: usize,
}

impl<R: Read> LineReader<R> {
    /// Wraps `source`, buffering at most `max_bytes` per line.
    pub fn new(source: R, max_bytes: usize) -> LineReader<R> {
        LineReader {
            source,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            end: 0,
            max_bytes: max_bytes.max(1),
        }
    }

    /// Reads until the next newline (or EOF / limit / timeout). Partial
    /// bytes after the last newline are kept for the next call; a
    /// stream ending mid-line is treated as EOF — an unterminated
    /// request was never committed.
    pub fn next_line(&mut self) -> LineOutcome {
        loop {
            if let Some(pos) = self.buf[self.scanned..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                let newline = self.scanned + pos;
                let mut line = &self.buf[self.start..newline];
                if let [head @ .., b'\r'] = line {
                    line = head;
                }
                let line = String::from_utf8_lossy(line).into_owned();
                self.start = newline + 1;
                self.scanned = self.start;
                return LineOutcome::Line(line);
            }
            self.scanned = self.end;
            if self.end - self.start >= self.max_bytes {
                return LineOutcome::TooLong;
            }
            if self.start == self.end {
                // Everything read was returned: refill from the front.
                (self.start, self.scanned, self.end) = (0, 0, 0);
            }
            if self.end == self.buf.len() {
                self.make_room();
            }
            match self.source.read(&mut self.buf[self.end..]) {
                Ok(0) => return LineOutcome::Eof,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return LineOutcome::TimedOut
                }
                Err(e) => return LineOutcome::Err(e),
            }
        }
    }

    /// Moves the partial line to the front of the buffer, and grows the
    /// buffer only when that line fills it. The partial line is shorter
    /// than `max_bytes` here, so the buffer stays under
    /// `max_bytes + CHUNK`.
    fn make_room(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.scanned -= self.start;
        self.start = 0;
        if self.end == self.buf.len() {
            let grown = (self.buf.len() * 2).clamp(CHUNK, self.max_bytes + CHUNK);
            self.buf.resize(grown, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_on_newlines_and_strip_carriage_returns() {
        let mut reader = LineReader::new(&b"ping\r\npong\nlast"[..], 64);
        assert!(matches!(reader.next_line(), LineOutcome::Line(l) if l == "ping"));
        assert!(matches!(reader.next_line(), LineOutcome::Line(l) if l == "pong"));
        // Unterminated trailing bytes are EOF, not a phantom request.
        assert!(matches!(reader.next_line(), LineOutcome::Eof));
    }

    #[test]
    fn over_long_lines_are_bounded_not_buffered() {
        let endless = vec![b'x'; 1 << 16];
        let mut reader = LineReader::new(&endless[..], 1024);
        assert!(matches!(reader.next_line(), LineOutcome::TooLong));
    }

    /// Hands out the scripted chunks one `read` at a time; `None`
    /// stands for a read timeout.
    struct Scripted(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn line(outcome: LineOutcome) -> String {
        match outcome {
            LineOutcome::Line(line) => line,
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn several_lines_in_one_read_come_out_in_order() {
        let frames = [
            "{\"type\":\"ack\"}",
            "queued",
            "",
            "running",
            "done",
            "result",
        ];
        let mut bytes = frames.join("\n").into_bytes();
        bytes.extend_from_slice(b"\npartial");
        let mut reader = LineReader::new(Scripted([Some(bytes)].into()), 64);
        for frame in frames {
            assert_eq!(line(reader.next_line()), frame);
        }
        assert!(matches!(reader.next_line(), LineOutcome::Eof));
    }

    #[test]
    fn a_line_split_across_many_reads_is_reassembled() {
        // Longer than the first buffer, so it is compacted and grown
        // while the line is still open.
        let long: String = (0..3 * CHUNK)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let mut bytes = format!("head\n{long}\r\ntail\n").into_bytes();
        let mut script = std::collections::VecDeque::new();
        while !bytes.is_empty() {
            let rest = bytes.split_off(bytes.len().min(7));
            script.push_back(Some(std::mem::replace(&mut bytes, rest)));
        }
        let mut reader = LineReader::new(Scripted(script), 4 * CHUNK);
        assert_eq!(line(reader.next_line()), "head");
        assert_eq!(line(reader.next_line()), long);
        assert_eq!(line(reader.next_line()), "tail");
        assert!(matches!(reader.next_line(), LineOutcome::Eof));
        assert!(reader.buf.len() <= 4 * CHUNK + CHUNK);
    }

    #[test]
    fn a_timeout_keeps_the_partial_line() {
        let script = [Some(b"pi".to_vec()), None, Some(b"ng\n".to_vec())];
        let mut reader = LineReader::new(Scripted(script.into()), 64);
        assert!(matches!(reader.next_line(), LineOutcome::TimedOut));
        assert_eq!(line(reader.next_line()), "ping");
    }

    #[test]
    fn a_line_over_the_limit_across_reads_is_too_long() {
        let script = [
            Some(vec![b'x'; 40]),
            Some(vec![b'x'; 40]),
            Some(b"\n".to_vec()),
        ];
        let mut reader = LineReader::new(Scripted(script.into()), 64);
        assert!(matches!(reader.next_line(), LineOutcome::TooLong));
    }

    #[test]
    fn frames_are_written_newline_terminated_in_one_write() {
        /// Counts `write` calls.
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting(Vec::new(), 0);
        write_frames(&mut out, &["ack", "queued", "result"]).unwrap();
        assert_eq!(
            (out.0.as_slice(), out.1),
            (&b"ack\nqueued\nresult\n"[..], 1)
        );
    }

    #[test]
    fn garbage_bytes_become_a_string_not_a_panic() {
        let mut reader = LineReader::new(&b"\xff\xfe\x00garbage\n"[..], 64);
        match reader.next_line() {
            LineOutcome::Line(line) => assert!(line.contains("garbage")),
            other => panic!("expected a line, got {other:?}"),
        }
    }
}
