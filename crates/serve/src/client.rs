//! A blocking client for the wire protocol — the engine behind
//! `vrl submit` and the serve test suite.
//!
//! The client mirrors the server's own input discipline: frames are
//! read through the bounded [`LineReader`]
//! (a misbehaving server cannot balloon client memory), and the socket
//! outcomes a caller must react to — disconnect, over-long frame,
//! timeout — are typed [`ClientError`] variants instead of raw
//! `io::Error`s or EOF-as-empty-string.
//!
//! [`Client::submit_with_retry`] layers bounded, deterministic
//! retry/backoff with reconnection on top: because served results are a
//! pure function of the spec, resubmitting after a mid-stream
//! disconnect is idempotent — a completed job replays its cached result
//! frame byte-identically.

use std::fmt;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

use crate::protocol::{self, is_terminal};
use crate::wire::{self, LineOutcome, LineReader};

/// Frames larger than this are a protocol violation, not data.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The server closed the connection before the expected frame.
    Disconnected,
    /// A response frame exceeded [`MAX_FRAME_BYTES`].
    FrameTooLong {
        /// The byte limit that was exceeded.
        limit: usize,
    },
    /// The socket's read timeout expired while waiting for a frame.
    TimedOut,
    /// Any other socket error (connect refused, reset, …).
    Io(io::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Disconnected => {
                write!(f, "server closed the connection before a terminal frame")
            }
            ClientError::FrameTooLong { limit } => {
                write!(f, "response frame exceeds {limit} bytes")
            }
            ClientError::TimedOut => write!(f, "timed out waiting for a response frame"),
            ClientError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::TimedOut,
            io::ErrorKind::UnexpectedEof => ClientError::Disconnected,
            _ => ClientError::Io(e),
        }
    }
}

/// Bounded, deterministic retry for [`Client::submit_with_retry`].
///
/// Backoff is a fixed arithmetic ramp (`base_delay * attempt`) rather
/// than randomized exponential jitter: the workloads are test suites
/// and scripted sweeps where reproducible timing matters more than
/// thundering-herd avoidance.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Resubmission attempts after the first try (0 = fail fast).
    pub retries: u32,
    /// Delay before retry `n` (1-based) is `base_delay * n`.
    pub base_delay: Duration,
    /// Per-frame read timeout applied to the socket (None = wait
    /// forever).
    pub timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            base_delay: Duration::from_millis(50),
            timeout: None,
        }
    }
}

/// One connection to a `vrl serve` daemon.
#[derive(Debug)]
pub struct Client {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
    addr: String,
    timeout: Option<Duration>,
}

impl Client {
    /// Connects to `addr` (`HOST:PORT`).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with_timeout(addr, None)
    }

    /// Connects with a per-frame read timeout (None = wait forever).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect_with_timeout(
        addr: &str,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr).map_err(ClientError::Io)?;
        // One-line frames must not sit in Nagle's buffer waiting for a
        // delayed ACK — that turns a sub-millisecond request into a
        // ~40-80ms one. Best-effort: a socket that rejects the option
        // still works, just slower.
        let _ = writer.set_nodelay(true);
        if let Some(timeout) = timeout {
            writer
                .set_read_timeout(Some(timeout))
                .map_err(ClientError::Io)?;
        }
        let reader = LineReader::new(
            writer.try_clone().map_err(ClientError::Io)?,
            MAX_FRAME_BYTES,
        );
        Ok(Client {
            reader,
            writer,
            addr: addr.to_owned(),
            timeout,
        })
    }

    /// Drops the current socket and dials the same address again.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        *self = Client::connect_with_timeout(&self.addr, self.timeout)?;
        Ok(())
    }

    fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        wire::write_frames(&mut self.writer, &[line])?;
        Ok(())
    }

    /// Reads one frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] on EOF, [`ClientError::TimedOut`]
    /// when the read timeout expires, [`ClientError::FrameTooLong`] for
    /// a frame over [`MAX_FRAME_BYTES`].
    pub fn recv(&mut self) -> Result<String, ClientError> {
        match self.reader.next_line() {
            LineOutcome::Line(line) => Ok(line),
            LineOutcome::Eof => Err(ClientError::Disconnected),
            LineOutcome::TooLong => Err(ClientError::FrameTooLong {
                limit: MAX_FRAME_BYTES,
            }),
            LineOutcome::TimedOut => Err(ClientError::TimedOut),
            LineOutcome::Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// Sends a request expecting exactly one response frame
    /// (ping/stats/shutdown), returning that frame.
    ///
    /// # Errors
    ///
    /// See [`Client::recv`].
    pub fn request_one(&mut self, line: &str) -> Result<String, ClientError> {
        self.send_line(line)?;
        self.recv()
    }

    /// Liveness probe → the `pong` frame.
    ///
    /// # Errors
    ///
    /// See [`Client::request_one`].
    pub fn ping(&mut self) -> Result<String, ClientError> {
        self.request_one("{\"type\":\"ping\"}")
    }

    /// Metrics snapshot → the `stats` frame.
    ///
    /// # Errors
    ///
    /// See [`Client::request_one`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.request_one("{\"type\":\"stats\"}")
    }

    /// Liveness + readiness report → the `health` frame.
    ///
    /// # Errors
    ///
    /// See [`Client::request_one`].
    pub fn health(&mut self) -> Result<String, ClientError> {
        self.request_one("{\"type\":\"health\"}")
    }

    /// One `metrics` frame in the requested format, optionally filtered
    /// to names starting with `prefix`.
    ///
    /// # Errors
    ///
    /// See [`Client::request_one`].
    pub fn metrics_frame(
        &mut self,
        format: crate::protocol::MetricsFormat,
        prefix: Option<&str>,
    ) -> Result<String, ClientError> {
        let mut line = String::from("{\"type\":\"metrics\",\"format\":\"");
        line.push_str(match format {
            crate::protocol::MetricsFormat::Text => "text",
            crate::protocol::MetricsFormat::Json => "json",
        });
        line.push('"');
        if let Some(prefix) = prefix {
            line.push_str(",\"prefix\":");
            serde::write_json_string(prefix, &mut line);
        }
        line.push('}');
        self.request_one(&line)
    }

    /// The decoded Prometheus-style exposition text (the `body` of a
    /// text-format `metrics` frame).
    ///
    /// # Errors
    ///
    /// See [`Client::request_one`]; additionally an [`ClientError::Io`]
    /// when the frame is not a well-formed text `metrics` frame.
    pub fn metrics_text(&mut self, prefix: Option<&str>) -> Result<String, ClientError> {
        let frame = self.metrics_frame(crate::protocol::MetricsFormat::Text, prefix)?;
        let value = vrl_obs::json::parse(&frame)
            .map_err(|e| ClientError::Io(io::Error::other(format!("bad metrics frame: {e}"))))?;
        value
            .get("body")
            .and_then(|b| b.as_str().map(str::to_owned))
            .ok_or_else(|| {
                ClientError::Io(io::Error::other(format!(
                    "metrics frame has no text body: {frame}"
                )))
            })
    }

    /// Replays the server's snapshot history: the `history` header, the
    /// `history_delta` frames, and the `history_end` terminator, in
    /// order.
    ///
    /// # Errors
    ///
    /// See [`Client::recv`].
    pub fn history(&mut self, limit: Option<usize>) -> Result<Vec<String>, ClientError> {
        let line = match limit {
            Some(limit) => format!("{{\"type\":\"history\",\"limit\":{limit}}}"),
            None => "{\"type\":\"history\"}".to_owned(),
        };
        self.send_line(&line)?;
        let mut frames = Vec::new();
        loop {
            let frame = self.recv()?;
            let done = frame.starts_with("{\"type\":\"history_end\"")
                || frame.starts_with("{\"type\":\"error\"");
            frames.push(frame);
            if done {
                return Ok(frames);
            }
        }
    }

    /// Opens an event stream, returning the `subscribed` ack (or reject
    /// `error`) frame. Stream events by calling [`Client::recv`]
    /// afterwards; the connection is dedicated to the stream from here
    /// on.
    ///
    /// # Errors
    ///
    /// See [`Client::request_one`].
    pub fn subscribe(&mut self) -> Result<String, ClientError> {
        self.request_one("{\"type\":\"subscribe\"}")
    }

    /// Sends one raw request line and collects frames until the
    /// terminal `result` or `error` frame (inclusive). Works for any
    /// line — including malformed ones, which come back as a single
    /// error frame.
    ///
    /// # Errors
    ///
    /// See [`Client::recv`] — including disconnect before a terminal
    /// frame.
    pub fn submit_raw(&mut self, line: &str) -> Result<Vec<String>, ClientError> {
        self.send_line(line)?;
        let mut frames = Vec::new();
        loop {
            let frame = self.recv()?;
            let terminal = is_terminal(&frame);
            frames.push(frame);
            if terminal {
                return Ok(frames);
            }
        }
    }

    /// [`submit_raw`](Client::submit_raw) with bounded retry: on
    /// disconnect, timeout, or a `busy` reject, sleeps
    /// `base_delay * attempt`, reconnects, and resubmits — up to
    /// `policy.retries` times. Safe because results are deterministic:
    /// a resubmission of a completed spec replays the cached result
    /// frame byte-identically. Non-`busy` error frames (bad spec, job
    /// failure) are terminal and returned without retry.
    ///
    /// # Errors
    ///
    /// The last attempt's error once retries are exhausted.
    pub fn submit_with_retry(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
    ) -> Result<Vec<String>, ClientError> {
        let mut last_err = None;
        for attempt in 0..=policy.retries {
            if attempt > 0 {
                std::thread::sleep(policy.base_delay * attempt);
                if let Err(e) = self.reconnect() {
                    last_err = Some(e);
                    continue;
                }
            }
            match self.submit_raw(line) {
                Ok(frames) => {
                    let busy = frames
                        .last()
                        .and_then(|f| protocol::reject_reason(f))
                        .is_some_and(|r| r == vrl_obs::ShedReason::Busy);
                    if busy && attempt < policy.retries {
                        last_err = Some(ClientError::Io(io::Error::other("server busy")));
                        continue;
                    }
                    return Ok(frames);
                }
                Err(e @ (ClientError::Disconnected | ClientError::TimedOut)) => {
                    last_err = Some(e);
                }
                // Protocol violations and hard socket errors don't
                // improve with retries.
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(ClientError::Disconnected))
    }

    /// Requests shutdown → the `shutdown` ack frame.
    ///
    /// # Errors
    ///
    /// See [`Client::request_one`].
    pub fn shutdown(&mut self, drain: bool) -> Result<String, ClientError> {
        let mode = if drain { "drain" } else { "now" };
        self.request_one(&format!("{{\"type\":\"shutdown\",\"mode\":\"{mode}\"}}"))
    }
}
