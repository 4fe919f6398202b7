//! `ServeClient`: the synchronous, reconnecting client.
//!
//! One client owns one connection and issues one request at a time,
//! skipping any reply that does not echo that request's id. On a
//! transport error the client transparently reconnects **once** and
//! retries the request — every opcode is semantically idempotent
//! (reconstruction is a pure function of its payload;
//! `SampleAndReconstruct` is seeded), so a retry can change latency but
//! never the answer.
//!
//! [`Reply::Busy`] (the server's admission queue is full) is likewise
//! retried, with a bounded linear backoff: backpressure is transient by
//! design, and surfacing the very first `Busy` as a hard
//! [`WireError::Busy`] forced every caller to hand-roll the same retry
//! loop. [`ServeClient::with_busy_retries`] tunes or disables it.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use hammer_core::HammerConfig;
use hammer_dist::{Counts, Distribution};

use crate::codec::{Reply, Request, SampleJob, TraceDumpEntry};
use crate::protocol::{read_frame, write_frame, Frame, WireError};

/// The floor for a deadline-derived socket timeout: a budget of a few
/// milliseconds still deserves one real read attempt.
const MIN_SOCKET_WAIT: Duration = Duration::from_millis(5);

/// `set_read_timeout(Some(ZERO))` is an error, not "no timeout" — map a
/// zero duration (and `None`) to blocking I/O.
fn nonzero(timeout: Option<Duration>) -> Option<Duration> {
    timeout.filter(|t| !t.is_zero())
}

/// A synchronous client for a `hammer_serve` endpoint.
///
/// # Example
///
/// ```no_run
/// use hammer_serve::ServeClient;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut client = ServeClient::connect("127.0.0.1:7878")?;
/// client.ping()?;
/// # Ok(())
/// # }
/// ```
pub struct ServeClient {
    addr: String,
    stream: Option<TcpStream>,
    next_id: u64,
    /// Additional attempts after a [`Reply::Busy`] before giving up.
    busy_retries: u32,
    /// Backoff before busy retry `i` (1-based): `i × busy_backoff`.
    busy_backoff: Duration,
    /// Socket read/write timeout; `None` blocks forever (a dead server
    /// mid-reply then hangs the caller — see
    /// [`with_io_timeout`](ServeClient::with_io_timeout)).
    io_timeout: Option<Duration>,
    /// Per-call time budget; stamped into every request frame so the
    /// server can cancel work the client stopped waiting for.
    deadline: Option<Duration>,
    /// A caller-pinned trace id; `None` generates a fresh one per call.
    pinned_trace_id: Option<u64>,
    /// The trace id the most recent call went out under (0 before the
    /// first call) — the handle for correlating a slow reply with the
    /// server's `TraceDump`.
    last_trace_id: u64,
}

impl ServeClient {
    /// Connects to a serving endpoint.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: impl Into<String>) -> std::io::Result<Self> {
        let addr = addr.into();
        let stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            addr,
            stream: Some(stream),
            next_id: 1,
            busy_retries: 3,
            busy_backoff: Duration::from_millis(10),
            io_timeout: None,
            deadline: None,
            pinned_trace_id: None,
            last_trace_id: 0,
        })
    }

    /// Pins every subsequent call to one trace id instead of generating
    /// a fresh id per call — the tool for correlating a scripted
    /// sequence of requests in the server's `TraceDump`. `0` unpins.
    #[must_use]
    pub fn with_trace_id(mut self, trace_id: u64) -> Self {
        self.pinned_trace_id = (trace_id != 0).then_some(trace_id);
        self
    }

    /// The trace id the most recent call was stamped with (stable
    /// across that call's transport/busy retries; 0 before any call).
    #[must_use]
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Bounds every socket read and write. Without one, a server that
    /// dies mid-reply (or a network that silently drops the connection)
    /// hangs the caller forever; with one, the stalled call surfaces as
    /// a retryable [`WireError::Io`] timeout. `None` restores blocking
    /// I/O.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.io_timeout = timeout;
        if let Some(stream) = &self.stream {
            let _ = stream.set_read_timeout(nonzero(timeout));
            let _ = stream.set_write_timeout(nonzero(timeout));
        }
        self
    }

    /// Gives every subsequent call a time budget. The remaining budget
    /// is stamped into each request frame (so the server can refuse or
    /// cancel work the client will no longer wait for), bounds the
    /// socket wait, and cuts the busy-retry loop short: once it runs
    /// out the call fails with [`WireError::DeadlineExceeded`]. `None`
    /// removes the budget.
    #[must_use]
    pub fn with_deadline(mut self, budget: Option<Duration>) -> Self {
        self.deadline = budget;
        self
    }

    /// Tunes the bounded `Busy` retry: up to `retries` additional
    /// attempts after a busy reply, sleeping `i × backoff` before the
    /// `i`-th retry (linear backoff). `retries = 0` restores the old
    /// fail-fast behavior where the first busy reply surfaces as
    /// [`WireError::Busy`].
    #[must_use]
    pub fn with_busy_retries(mut self, retries: u32, backoff: Duration) -> Self {
        self.busy_retries = retries;
        self.busy_backoff = backoff;
        self
    }

    /// The endpoint address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn ensure_stream(&mut self) -> Result<&mut TcpStream, WireError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(nonzero(self.io_timeout))?;
            stream.set_write_timeout(nonzero(self.io_timeout))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just ensured"))
    }

    fn call_once(
        &mut self,
        id: u64,
        request: &Request,
        deadline: Option<Instant>,
        trace_id: u64,
    ) -> Result<Reply, WireError> {
        let opcode = request.opcode();
        let payload = request.encode();
        // The wire carries the *remaining* budget: milliseconds the
        // client is still willing to wait, re-measured per attempt.
        let deadline_ms = match deadline {
            None => 0,
            Some(dl) => {
                let rem = dl.saturating_duration_since(Instant::now());
                if rem.is_zero() {
                    return Err(WireError::DeadlineExceeded);
                }
                u32::try_from(rem.as_millis()).unwrap_or(u32::MAX).max(1)
            }
        };
        let io_timeout = self.io_timeout;
        let stream = self.ensure_stream()?;
        if deadline.is_some() {
            // Never wait on the socket past the budget, even when the
            // configured i/o timeout is longer (or absent).
            let budget = Duration::from_millis(u64::from(deadline_ms)).max(MIN_SOCKET_WAIT);
            let capped = io_timeout.map_or(budget, |t| t.min(budget));
            stream.set_read_timeout(Some(capped))?;
            stream.set_write_timeout(Some(capped))?;
        } else {
            // Undo any budget-derived cap a previous call left behind.
            stream.set_read_timeout(nonzero(io_timeout))?;
            stream.set_write_timeout(nonzero(io_timeout))?;
        }
        let exchanged = write_frame(stream, id, opcode, deadline_ms, trace_id, &payload)
            .map_err(WireError::from)
            .and_then(|()| loop {
                let frame = read_frame(stream)?;
                // A sync client has exactly one request outstanding;
                // anything else (e.g. an id-0 framing report) ends the
                // exchange.
                if frame.request_id == id || frame.request_id == 0 {
                    break Ok(frame);
                }
            });
        match exchanged {
            Ok(Frame {
                opcode, payload, ..
            }) => Reply::decode(opcode, &payload),
            Err(e) => {
                // A transport or framing failure leaves the stream at an
                // unknown offset (a corrupt header's payload is still
                // unread), so never parse another reply from it.
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Sends one request and reads its reply, reconnecting and retrying
    /// once on a transport failure, and retrying up to
    /// [`with_busy_retries`](ServeClient::with_busy_retries) further
    /// times (with linear backoff) when the server answers `Busy`.
    /// Under a [`with_deadline`](ServeClient::with_deadline) budget the
    /// retries stop — and the call fails with
    /// [`WireError::DeadlineExceeded`] — as soon as the budget is gone.
    ///
    /// # Errors
    ///
    /// The final [`WireError`] after the retries; a `Busy` reply that
    /// outlives every retry is returned as-is for the typed helpers to
    /// surface as [`WireError::Busy`].
    pub fn call(&mut self, request: &Request) -> Result<Reply, WireError> {
        let deadline = self.deadline.map(|budget| Instant::now() + budget);
        // One id per *call*, not per attempt: every retry of this
        // request shows up in the server's traces under the same id.
        let trace_id = self
            .pinned_trace_id
            .unwrap_or_else(hammer_obs::gen_trace_id);
        self.last_trace_id = trace_id;
        let mut busy_attempts = 0u32;
        loop {
            let id = self.next_id;
            self.next_id += 1;
            let result = match self.call_once(id, request, deadline, trace_id) {
                Err(WireError::Io(e)) => {
                    // Out of budget is a final verdict, not a dead
                    // connection; everything else (server restart, idle
                    // timeout…) gets one rebuild-and-retry of the
                    // idempotent request (`call_once` already dropped
                    // the stream).
                    let timed_out = matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    );
                    if timed_out && deadline.is_some_and(|dl| Instant::now() >= dl) {
                        return Err(WireError::DeadlineExceeded);
                    }
                    self.call_once(id, request, deadline, trace_id)
                }
                Ok(Reply::ShuttingDown) => {
                    // The server said, in-band, that it is going away: a
                    // replacement may already own the address. Rebuild
                    // the connection once and re-ask; if nothing answers
                    // there (yet), the honest verdict is still
                    // `ShuttingDown`, not a transport error.
                    self.stream = None;
                    match self.call_once(id, request, deadline, trace_id) {
                        Err(WireError::Io(_)) => Ok(Reply::ShuttingDown),
                        other => other,
                    }
                }
                other => other,
            };
            match result {
                Ok(Reply::Busy) if busy_attempts < self.busy_retries => {
                    // Backpressure is transient: give the admission
                    // queue `i × backoff` to drain, then re-ask — unless
                    // the wait would outlive the budget.
                    busy_attempts += 1;
                    let backoff = self.busy_backoff * busy_attempts;
                    if let Some(dl) = deadline {
                        if Instant::now() + backoff >= dl {
                            return Err(WireError::DeadlineExceeded);
                        }
                    }
                    std::thread::sleep(backoff);
                }
                other => return other,
            }
        }
    }

    /// In-band replies that abort a typed helper.
    fn unexpected(reply: Reply) -> WireError {
        match reply {
            Reply::Busy => WireError::Busy,
            Reply::DeadlineExceeded => WireError::DeadlineExceeded,
            Reply::ShuttingDown => WireError::ShuttingDown,
            Reply::Error(msg) => WireError::Remote(msg),
            other => WireError::UnexpectedReply(other.opcode()),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Reconstructs a measured histogram on the server.
    ///
    /// # Errors
    ///
    /// [`WireError::Busy`] under backpressure, [`WireError::Remote`]
    /// on a server-side failure, transport/protocol failures otherwise.
    pub fn reconstruct(
        &mut self,
        counts: &Counts,
        config: &HammerConfig,
    ) -> Result<Distribution, WireError> {
        let request = Request::Reconstruct {
            config: *config,
            counts: counts.clone(),
        };
        match self.call(&request)? {
            Reply::Distribution(d) => Ok(d),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Runs the full simulate-then-reconstruct pipeline on the server.
    ///
    /// # Errors
    ///
    /// As for [`reconstruct`](ServeClient::reconstruct).
    pub fn sample_and_reconstruct(&mut self, job: &SampleJob) -> Result<Distribution, WireError> {
        match self.call(&Request::SampleAndReconstruct(job.clone()))? {
            Reply::Distribution(d) => Ok(d),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Drains the server's slow-request trace ring: span trees of every
    /// request that crossed the configured slow threshold (or missed
    /// its deadline) since the last dump. Draining is destructive —
    /// two monitors polling one server split the traces between them.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn trace_dump(&mut self) -> Result<Vec<TraceDumpEntry>, WireError> {
        match self.call(&Request::TraceDump)? {
            Reply::TraceDump(entries) => Ok(entries),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Snapshots every registered metric series (counters, gauges and
    /// latency histograms; server-local merged with process-global) —
    /// the one way to read the serving counters (`serve.requests`,
    /// `serve.cache.*`, `serve.store.*`, …).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn metrics_snapshot(&mut self) -> Result<hammer_obs::MetricsSnapshot, WireError> {
        match self.call(&Request::MetricsSnapshot)? {
            Reply::MetricsSnapshot(snap) => Ok(snap),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Requests graceful shutdown.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Shutdown)? {
            Reply::ShutdownAck => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }
}
