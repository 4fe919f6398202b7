//! A fault-injecting TCP proxy for chaos-testing the serving tier.
//!
//! [`ChaosProxy`] sits between a client and a real server and mangles
//! the byte stream according to a per-connection [`Fault`] schedule:
//! added latency, dropped or truncated streams, flipped bytes,
//! half-closed sockets. The chaos suite drives clients through it and
//! asserts the *server-side* invariants — no deadlock, no panic escape,
//! no stuck follower, byte-identical replies for whatever completes —
//! while the proxy plays the hostile network.
//!
//! The proxy is deliberately dumb: it neither parses frames nor knows
//! the protocol, so every fault it injects is one the real world can
//! produce (a NAT timeout, a dying switch, a buggy middlebox). The one
//! concession to observability: the trace-id field sits at a fixed
//! offset in every v3 frame header, so the proxy *sniffs* (never
//! decodes) the id of the last request it saw and records it alongside
//! each fault it fires — structured `chaos` events (in the global
//! [`EventLog`]) and [`ChaosProxy::fault_log`] tie an injected fault
//! back to the victim request's server-side trace.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hammer_obs::EventLog;

use crate::protocol::{MAGIC, TRACE_ID_OFFSET, VERSION};

/// Fired faults retained by [`ChaosProxy::fault_log`]. A long chaos
/// soak fires one event per perturbed connection; the ring keeps the
/// latest and counts what it sheds ([`ChaosProxy::faults_dropped`]), so
/// soak memory stays bounded no matter how long the drill runs.
const FAULT_LOG_CAP: usize = 1024;

/// The bounded keep-latest ring behind [`ChaosProxy::fault_log`].
struct FaultLog {
    ring: Mutex<VecDeque<FaultEvent>>,
    dropped: AtomicU64,
}

impl FaultLog {
    fn new() -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, event: FaultEvent) {
        let mut ring = self.ring.lock().expect("fault log unpoisoned");
        if ring.len() == FAULT_LOG_CAP {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }
}

/// What the proxy does to one proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Pass bytes through untouched.
    None,
    /// Delay every request-direction chunk by this many milliseconds
    /// (a slow, but honest, network).
    DelayMs(u64),
    /// Forward only the first `n` request bytes, then go silent while
    /// holding the connection open (slow-loris from the server's view).
    DropRequestAfter(usize),
    /// Forward only the first `n` reply bytes, then sever both sides
    /// (the client sees a truncated reply).
    TruncateReplyAfter(usize),
    /// Flip the byte at request offset `n` (header or payload
    /// corruption, depending on `n`).
    CorruptRequestByte(usize),
    /// Forward the first `n` request bytes, then half-close the
    /// client→server direction (FIN with the reply path still open).
    HalfCloseRequestAfter(usize),
}

/// One injected fault, recorded the moment it first perturbed traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 0-based accept-order index of the victim connection.
    pub connection: usize,
    /// The fault the schedule assigned to that connection.
    pub fault: Fault,
    /// Trace id of the last v3 request frame the proxy saw on the
    /// victim connection before the fault fired, if it saw one (bare
    /// clients and frames of any other version leave this `None`).
    pub trace_id: Option<u64>,
}

/// Per-connection fault bookkeeping, shared by both pump directions.
struct FaultMonitor {
    connection: usize,
    fault: Fault,
    /// Last trace id sniffed from a request-direction chunk (0 = none).
    last_trace: AtomicU64,
    /// Whether this connection's fault has been logged already — each
    /// fault is recorded once, at first effect.
    logged: AtomicBool,
    log: Arc<FaultLog>,
}

impl FaultMonitor {
    /// Remembers the trace id of a request-direction chunk that starts
    /// a v3 frame. A fixed-offset peek, not a protocol decode: the
    /// proxy stays dumb enough that every fault it injects remains one
    /// a real middlebox could produce.
    fn sniff(&self, chunk: &[u8]) {
        if chunk.len() >= TRACE_ID_OFFSET + 8
            && chunk[..MAGIC.len()] == MAGIC
            && chunk[MAGIC.len()..MAGIC.len() + 2] == VERSION.to_le_bytes()
        {
            let mut id = [0u8; 8];
            id.copy_from_slice(&chunk[TRACE_ID_OFFSET..TRACE_ID_OFFSET + 8]);
            self.last_trace
                .store(u64::from_le_bytes(id), Ordering::Relaxed);
        }
    }

    /// Records the fault the first time it actually perturbs traffic.
    fn fired(&self) {
        if self.logged.swap(true, Ordering::SeqCst) {
            return;
        }
        let event = FaultEvent {
            connection: self.connection,
            fault: self.fault,
            trace_id: match self.last_trace.load(Ordering::Relaxed) {
                0 => None,
                id => Some(id),
            },
        };
        EventLog::global()
            .warn("chaos", "fault fired")
            .field("conn", event.connection)
            .field("fault", format!("{:?}", event.fault))
            .trace(event.trace_id.unwrap_or(0));
        self.log.push(event);
    }
}

/// A running chaos proxy; dropping it severs every proxied connection.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicUsize>,
    log: Arc<FaultLog>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral local port, forwarding to
    /// `upstream`. Connection `i` (0-based, in accept order) gets
    /// `schedule[i % schedule.len()]`; an empty schedule means
    /// [`Fault::None`] for everyone.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(upstream: SocketAddr, schedule: Vec<Fault>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        // Polling accept so `stop` is honored promptly.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicUsize::new(0));
        let log = Arc::new(FaultLog::new());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            let log = Arc::clone(&log);
            std::thread::Builder::new()
                .name("chaos-proxy-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                let n = accepted.fetch_add(1, Ordering::SeqCst);
                                let fault = if schedule.is_empty() {
                                    Fault::None
                                } else {
                                    schedule[n % schedule.len()]
                                };
                                let stop = Arc::clone(&stop);
                                let monitor = Arc::new(FaultMonitor {
                                    connection: n,
                                    fault,
                                    last_trace: AtomicU64::new(0),
                                    logged: AtomicBool::new(false),
                                    log: Arc::clone(&log),
                                });
                                let _ = std::thread::Builder::new()
                                    .name("chaos-proxy-conn".into())
                                    .spawn(move || {
                                        proxy_connection(client, upstream, fault, stop, &monitor);
                                    });
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("proxy acceptor spawns")
        };
        Ok(Self {
            local_addr,
            stop,
            accepted,
            log,
            acceptor: Some(acceptor),
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How many connections the proxy has accepted so far.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// The most recent fired faults — one entry per perturbed
    /// connection, tagged with the victim request's trace id when the
    /// proxy saw one on the wire. Scheduled-but-dormant faults (the
    /// connection never hit the trigger) do not appear, and a soak
    /// that fires more than the ring's capacity keeps only the latest
    /// (see [`faults_dropped`](ChaosProxy::faults_dropped)).
    #[must_use]
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.log
            .ring
            .lock()
            .expect("fault log unpoisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Fired faults evicted from the bounded log so far.
    #[must_use]
    pub fn faults_dropped(&self) -> u64 {
        self.log.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Pumps one proxied connection, applying `fault` to the two
/// directions. Request direction = client→upstream.
fn proxy_connection(
    client: TcpStream,
    upstream: SocketAddr,
    fault: Fault,
    stop: Arc<AtomicBool>,
    monitor: &Arc<FaultMonitor>,
) {
    let Ok(server) = TcpStream::connect(upstream) else {
        return;
    };
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    // Short read timeouts keep both pumps responsive to `stop`.
    let tick = Some(Duration::from_millis(20));
    client.set_read_timeout(tick).ok();
    server.set_read_timeout(tick).ok();

    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let request_fault = match fault {
        Fault::TruncateReplyAfter(_) => Fault::None,
        f => f,
    };
    let reply_fault = match fault {
        Fault::TruncateReplyAfter(n) => Fault::TruncateReplyAfter(n),
        Fault::DelayMs(_) => fault, // symmetric latency
        _ => Fault::None,
    };
    let up = {
        let stop = Arc::clone(&stop);
        let monitor = Arc::clone(monitor);
        std::thread::Builder::new()
            .name("chaos-pump-up".into())
            .spawn(move || pump(client_r, server, request_fault, true, &stop, &monitor))
    };
    // Reply direction runs on this thread.
    pump(server_r, client, reply_fault, false, &stop, monitor);
    if let Ok(handle) = up {
        let _ = handle.join();
    }
}

/// Copies bytes `src → dst`, applying one fault, until EOF/stop/error.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    fault: Fault,
    is_request: bool,
    stop: &AtomicBool,
    monitor: &FaultMonitor,
) {
    let mut buf = [0u8; 4096];
    let mut forwarded = 0usize;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Propagate the EOF as a half-close, keeping the other
                // direction alive (real TCP semantics).
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        let chunk = &mut buf[..n];
        // Sniff the victim's trace id before the fault can mangle the
        // chunk, so a corrupted frame still logs its original id.
        if is_request {
            monitor.sniff(chunk);
        }
        match fault {
            Fault::None => {}
            Fault::DelayMs(ms) => {
                monitor.fired();
                std::thread::sleep(Duration::from_millis(ms));
            }
            Fault::DropRequestAfter(limit) | Fault::TruncateReplyAfter(limit) => {
                if forwarded >= limit {
                    monitor.fired();
                    if matches!(fault, Fault::TruncateReplyAfter(_)) {
                        // Sever: the client must see a hard truncation,
                        // not a stall.
                        let _ = dst.shutdown(Shutdown::Both);
                        let _ = src.shutdown(Shutdown::Both);
                        return;
                    }
                    // Drop: swallow bytes silently, keep the socket up.
                    forwarded += n;
                    continue;
                }
                let allowed = (limit - forwarded).min(n);
                if allowed < n {
                    monitor.fired();
                }
                if write_all(&mut dst, &chunk[..allowed]).is_err() {
                    return;
                }
                forwarded += n;
                if matches!(fault, Fault::TruncateReplyAfter(_)) && forwarded >= limit {
                    monitor.fired();
                    let _ = dst.shutdown(Shutdown::Both);
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
                continue;
            }
            Fault::CorruptRequestByte(offset) => {
                if is_request && (forwarded..forwarded + n).contains(&offset) {
                    monitor.fired();
                    chunk[offset - forwarded] ^= 0xFF;
                }
            }
            Fault::HalfCloseRequestAfter(limit) => {
                if is_request && forwarded + n >= limit {
                    monitor.fired();
                    let allowed = limit.saturating_sub(forwarded).min(n);
                    let _ = write_all(&mut dst, &chunk[..allowed]);
                    let _ = dst.shutdown(Shutdown::Write);
                    return;
                }
            }
        }
        if write_all(&mut dst, chunk).is_err() {
            return;
        }
        forwarded += n;
    }
}

fn write_all(dst: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    dst.write_all(bytes)?;
    dst.flush()
}
