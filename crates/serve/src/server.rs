//! The server runtime: TCP acceptor, one thread per connection, an
//! admission gate with `Busy` backpressure in front of compute, and
//! graceful shutdown that drains in-flight work.
//!
//! # Thread anatomy
//!
//! ```text
//! acceptor ── one thread per socket ─┐
//!                                    ▼
//! socket ── frame ─────────► connection thread ── lookup ──► cache shard
//!        ◄── reply, in order ─       │      ◄── hit: the reply bytes
//!                                    │      ◄── follow: wait on the leader's
//!                                    │          slot (no gate, no slot held)
//!                                    │ lead: decode
//!                                    ▼
//!                             admission gate ── permit ──► compute on the
//!                             (`workers` slots,            connection thread,
//!                              bounded EDF queue,          publish to the cache
//!                              Busy when full)             and the followers
//! ```
//!
//! Each connection thread reads a frame, answers it, writes the reply
//! on its own socket, and only then reads the next frame, so replies on
//! one connection leave in request order. It hashes each compute
//! request's opcode and raw payload bytes into a cache key and looks it
//! up in the distribution cache itself, before decoding anything. One
//! lookup decides the request's path: a hit writes the cached reply
//! bytes straight back, so hot requests never wait behind cold work and
//! are never decoded; a request whose key another request is computing
//! follows it, waiting for the published bytes without entering the
//! gate; otherwise the request leads. Only a leader decodes its
//! request. It then enters the admission gate and, once granted a
//! permit, computes on the same connection thread, encodes the
//! distribution once, and publishes those bytes to the cache and its
//! followers. A client that pipelines
//! frames gets them answered one after another, and a client that stops
//! reading stalls only its own connection thread (TCP backpressure,
//! bounded by the write timeout).
//!
//! The gate ([`hammer_pool::Admission`]) spawns no threads; it only
//! decides admission: at most `workers` leaders compute at once, not
//! one per connection thread, at most `queue_limit` wait (beyond that
//! the reply is `Busy`), and waiters are granted earliest deadline
//! first. Followers hold no slot and take no queue place. The
//! computation inside a request — kernel tiles and simulator trial
//! blocks — fans out on scoped threads through
//! [`hammer_pool::run_tiles`] and joins before the permit is dropped.
//!
//! # Observability
//!
//! Every server owns a private [`hammer_obs::Registry`] — counters and
//! per-stage latency histograms are exact per instance, so tests can
//! boot several servers in one process and assert on each. Compute
//! requests carry a [`TraceCtx`] from frame arrival to the socket
//! write: each stage (cache probe, decode, queue wait, store load,
//! compute, encode, write) opens a span that lands both in the
//! request's own span list and in the matching stage histogram. Slow
//! requests (and every `DeadlineExceeded`) park their span tree in a
//! bounded ring, drained by the `TraceDump` opcode. Tracing costs one
//! `Instant::now` pair and an atomic add per stage, and the whole
//! span/histogram layer sits behind [`hammer_obs::timing_enabled`];
//! counters stay exact either way.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hammer_core::{CancelToken, Cancelled, Hammer};
use hammer_dist::fingerprint::Fingerprinter;
use hammer_dist::Distribution;
use hammer_obs::{
    gen_trace_id, Counter, EventLog, Histogram, MetricsSnapshot, Registry, RollupConfig, SloSpec,
    SloStatus, SloTracker, TimeSeries, TraceCtx, TraceRing,
};
use hammer_pool::Admission;
use hammer_sim::AutoEngine;

use crate::cache::{ComputeError, ComputeResult, DistCache, Lease, Lookup};
use crate::codec::{self, Reply, Request, SampleJob};
use crate::protocol::{encode_frame, opcode, read_frame, write_frame, Frame, WireError};
use crate::store::DistStore;

/// Serving configuration (the `repro serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Cache misses that compute at once: the admission gate's slots.
    /// Each runs on its own connection thread while it holds one.
    pub workers: usize,
    /// Leaders waiting for a slot beyond which the server replies
    /// `Busy`; 0 refuses every computation. Followers of a computation
    /// in progress never wait here.
    pub queue_limit: usize,
    /// Distribution-cache budget in mebibytes.
    pub cache_mb: usize,
    /// Per-connection socket timeout for mid-frame reads and all
    /// writes. A client that starts a frame must finish it within this
    /// window (slow-loris defense); *idle* connections — no frame in
    /// progress — are never timed out. `None` disables.
    pub io_timeout: Option<Duration>,
    /// Directory of the persistent spill store (`--store-dir`). `None`
    /// runs without one: evictions are discarded and every restart is
    /// cold. A directory that cannot be opened degrades to the same —
    /// never a refused start.
    pub store_dir: Option<std::path::PathBuf>,
    /// On-disk byte budget of the spill store, in mebibytes.
    pub store_mb: usize,
    /// Requests whose end-to-end latency reaches this many milliseconds
    /// dump their span tree into the `TraceDump` ring (deadline-exceeded
    /// requests are always captured). `0` captures every traced request
    /// — the setting for tests and short diagnostics sessions.
    pub slow_trace_ms: u64,
    /// Bind address of the HTTP exposition listener (`--metrics-addr`):
    /// `GET /metrics`, `/series`, `/events`, `/slo`, `/healthz` on a
    /// dedicated thread. `None` (the default) runs without one.
    pub metrics_addr: Option<String>,
    /// Width of one rollup window in milliseconds — the roller thread's
    /// tick, the grain of `/series` history and of SLO burn windows.
    pub rollup_window_ms: u64,
    /// Declared SLOs, evaluated every rollup window against the rings
    /// (see [`SloSpec::parse`] for the declaration format).
    pub slos: Vec<SloSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: cores.max(2),
            queue_limit: 256,
            cache_mb: 64,
            io_timeout: Some(Duration::from_secs(30)),
            store_dir: None,
            store_mb: 256,
            slow_trace_ms: 500,
            metrics_addr: None,
            rollup_window_ms: 1_000,
            slos: Vec::new(),
        }
    }
}

/// Concurrent-connection cap; connections over the limit get one
/// `Busy` frame and are dropped.
const MAX_CONNECTIONS: usize = 1024;

/// Capacity of the slow-request trace ring: deep enough to hold a
/// burst of outliers between `TraceDump` polls, small enough that an
/// unpolled server caps its memory at a few dozen span trees.
const TRACE_RING_CAP: usize = 64;

/// Counters owned by the runtime (the cache and coalescing counters
/// live in [`DistCache`]). The request/refusal/shed tallies are
/// registry counters — same cells the `MetricsSnapshot` opcode exposes —
/// while the drain count stays a plain atomic: it is shutdown
/// bookkeeping, not a metric.
struct RuntimeCounters {
    /// Compute requests answered from the cache, by following a leader,
    /// or by leading once granted a slot; `Busy` refusals and
    /// grant-time sheds are not counted.
    requests: Counter,
    busy: Counter,
    /// Misses shed when granted because their deadline had already
    /// expired in the queue — answered `DeadlineExceeded` without
    /// computing.
    deadline_sheds: Counter,
    /// Every reply written (or attempted), and the subset that refused
    /// or failed the request (`Error` / `Busy` / `DeadlineExceeded` /
    /// `ShuttingDown`) — the numerator and denominator of the default
    /// availability SLO.
    replies_total: Counter,
    replies_failed: Counter,
    /// Requests whose frame has arrived but whose reply is not yet
    /// written. Graceful shutdown waits for this to reach zero, so every
    /// admitted request is answered and flushed before `wait` returns
    /// (and before a hosting process exits, killing the detached
    /// connection threads).
    unanswered: AtomicUsize,
}

impl RuntimeCounters {
    fn registered(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            busy: registry.counter("serve.busy_rejections"),
            deadline_sheds: registry.counter("serve.deadline_sheds"),
            replies_total: registry.counter("serve.replies.total"),
            replies_failed: registry.counter("serve.replies.failed"),
            unanswered: AtomicUsize::new(0),
        }
    }
}

/// Per-stage latency histograms, one per pipeline stage a request
/// crosses. Registered under `serve.stage.*_ns` plus the end-to-end
/// `serve.request_ns`.
struct StageHists {
    decode: Histogram,
    queue: Histogram,
    coalesce_wait: Histogram,
    cache_probe: Histogram,
    store_load: Histogram,
    compute: Histogram,
    encode: Histogram,
    write: Histogram,
    request: Histogram,
}

impl StageHists {
    fn registered(registry: &Registry) -> Self {
        Self {
            decode: registry.histogram("serve.stage.decode_ns"),
            queue: registry.histogram("serve.stage.queue_ns"),
            coalesce_wait: registry.histogram("serve.stage.coalesce_wait_ns"),
            cache_probe: registry.histogram("serve.stage.cache_probe_ns"),
            store_load: registry.histogram("serve.stage.store_load_ns"),
            compute: registry.histogram("serve.stage.compute_ns"),
            encode: registry.histogram("serve.stage.encode_ns"),
            write: registry.histogram("serve.stage.write_ns"),
            request: registry.histogram("serve.request_ns"),
        }
    }
}

/// Shared server state.
pub(crate) struct ServerState {
    admission: Admission,
    cache: DistCache,
    /// The persistent spill tier, if configured and openable.
    store: Option<DistStore>,
    counters: RuntimeCounters,
    /// This server's metric registry; compute-tier metrics
    /// (`pool.*`, `core.*`, `sim.*`) live on [`Registry::global`] and
    /// are merged in at snapshot time.
    obs: Registry,
    stages: StageHists,
    /// Span trees of slow / deadline-exceeded requests, drained by the
    /// `TraceDump` opcode.
    traces: TraceRing,
    /// Capture threshold in nanoseconds; `0` captures every trace.
    slow_trace_ns: u64,
    /// Rollup rings the roller thread folds
    /// [`obs_snapshot`](ServerState::obs_snapshot) into every window.
    ts: TimeSeries,
    /// The structured event log; the process-global one so chaos /
    /// store / fault events land next to serve events and `/events`
    /// shows them all.
    events: &'static EventLog,
    /// Latest SLO evaluation, refreshed by the roller every window.
    slo_status: Mutex<Vec<SloStatus>>,
    shutting_down: AtomicBool,
    io_timeout: Option<Duration>,
    connections: AtomicUsize,
}

impl ServerState {
    /// One coherent snapshot of every registered series: gauges are
    /// refreshed first, then this server's registry is merged over the
    /// process-global one (pool queue waits, kernel and sim timings).
    pub(crate) fn obs_snapshot(&self) -> MetricsSnapshot {
        let (entries, bytes) = self.cache.resident();
        self.obs
            .gauge("serve.cache.entries")
            .set(i64::try_from(entries).unwrap_or(i64::MAX));
        self.obs
            .gauge("serve.cache.bytes")
            .set(i64::try_from(bytes).unwrap_or(i64::MAX));
        self.obs
            .gauge("serve.connections")
            .set(i64::try_from(self.connections.load(Ordering::SeqCst)).unwrap_or(i64::MAX));
        self.obs
            .gauge("serve.queue.depth")
            .set(i64::try_from(self.admission.queued()).unwrap_or(i64::MAX));
        self.obs.snapshot().merge(Registry::global().snapshot())
    }

    /// The rollup rings (exposition listener).
    pub(crate) fn time_series(&self) -> &TimeSeries {
        &self.ts
    }

    /// The structured event log (exposition listener).
    pub(crate) fn event_log(&self) -> &'static EventLog {
        self.events
    }

    /// The latest SLO evaluation (exposition listener).
    pub(crate) fn slo_statuses(&self) -> Vec<SloStatus> {
        self.slo_status.lock().unwrap().clone()
    }

    /// Whether shutdown has begun (exposition and roller threads poll
    /// this to exit).
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Publishes a leader's result through its lease, which wakes the
    /// followers, then demotes the entries the insert evicted into the
    /// spill store. Spill failures lose only the demotion (the store
    /// skips that entry), never the request.
    fn publish(&self, lease: Lease<'_>, result: ComputeResult) {
        let evicted = lease.publish(result);
        if let Some(store) = &self.store {
            for (key, payload) in evicted {
                let _ = store.spill_payload(key, &payload);
            }
        }
    }
}

/// A running server. Obtained from [`serve`]; dropped or
/// [`wait`](ServerHandle::wait)ed to completion.
pub struct ServerHandle {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound address of the HTTP exposition listener, when
    /// `metrics_addr` was configured (resolves port 0).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The latest SLO evaluation (refreshed every rollup window).
    #[must_use]
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.state.slo_statuses()
    }

    /// A snapshot of every registered metric series (the
    /// `MetricsSnapshot` opcode, without a round trip).
    #[must_use]
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        self.state.obs_snapshot()
    }

    /// Triggers shutdown from the hosting process (equivalent to a
    /// `Shutdown` frame).
    pub fn shutdown(&self) {
        begin_shutdown(&self.state, self.local_addr);
    }

    /// Blocks until the server has shut down: the acceptor has exited
    /// and every accepted request has been answered. Returns the final
    /// metric snapshot, taken after the shutdown spill.
    #[must_use]
    pub fn wait(mut self) -> MetricsSnapshot {
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("acceptor does not panic");
        }
        // The exposition listener polls the shutdown flag every accept
        // tick; joining it here closes the metrics port before `wait`
        // returns.
        if let Some(http) = self.http.take() {
            http.join().expect("exposition thread does not panic");
        }
        // Drain: a request counts from the arrival of its frame until
        // its reply is written, so at zero all accepted work is answered
        // AND flushed.
        while self.state.counters.unanswered.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Graceful shutdowns flush the whole resident hot set — not
        // just past evictions — into the spill tier, hottest entries
        // last so they supersede on replay: the next start over this
        // directory serves warm. (A crash skips this; the store still
        // holds every spill fsync'd before the crash.)
        if let Some(store) = &self.state.store {
            for (key, payload) in self.state.cache.entries() {
                let _ = store.spill_payload(key, &payload);
            }
        }
        self.state.obs_snapshot()
    }
}

/// Flags shutdown and unblocks the acceptor with a wake-up connection.
fn begin_shutdown(state: &ServerState, addr: SocketAddr) {
    if !state.shutting_down.swap(true, Ordering::SeqCst) {
        // Misses already waiting are still granted; later entrants are
        // refused at the gate, which also catches a request that passed
        // its connection's flag check just before the flag flipped.
        state.admission.begin_shutdown();
        // The acceptor blocks in `accept`; a throwaway connection makes
        // it re-check the flag. Failure is fine (acceptor already gone).
        let _ = TcpStream::connect(addr);
    }
}

/// Binds and starts the serving runtime.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let obs = Registry::new();
    // A store that cannot be opened is a degraded start (cold cache,
    // no persistence), never a refused one.
    let events = EventLog::global();
    let store = config.store_dir.as_ref().and_then(|dir| {
        let budget = (config.store_mb.max(1) as u64).saturating_mul(1024 * 1024);
        match DistStore::open(dir, budget, &obs) {
            Ok(store) => Some(store),
            Err(e) => {
                events
                    .warn("serve", "store unusable; serving without persistence")
                    .field("dir", dir.display())
                    .field("error", e);
                None
            }
        }
    });
    let state = Arc::new(ServerState {
        admission: Admission::new(config.workers.max(1), config.queue_limit),
        cache: DistCache::new(config.cache_mb.saturating_mul(1024 * 1024), &obs),
        store,
        counters: RuntimeCounters::registered(&obs),
        stages: StageHists::registered(&obs),
        traces: TraceRing::new(TRACE_RING_CAP),
        slow_trace_ns: config.slow_trace_ms.saturating_mul(1_000_000),
        ts: TimeSeries::new(RollupConfig {
            window_ms: config.rollup_window_ms.max(10),
            ..RollupConfig::default()
        }),
        events,
        slo_status: Mutex::new(Vec::new()),
        obs,
        shutting_down: AtomicBool::new(false),
        io_timeout: config.io_timeout.filter(|t| !t.is_zero()),
        connections: AtomicUsize::new(0),
    });
    // The roller: one tick per rollup window, folding a full snapshot
    // into the rings and re-evaluating SLOs. Detached — it polls the
    // shutdown flag every slice and exits within one, holding only its
    // own Arc on the state.
    {
        let state = Arc::clone(&state);
        let mut tracker = SloTracker::new(config.slos.clone(), &state.obs);
        let window = Duration::from_millis(config.rollup_window_ms.max(10));
        std::thread::Builder::new()
            .name("hammer-serve-roll".into())
            .spawn(move || {
                let slice = Duration::from_millis(20).min(window);
                loop {
                    let mut slept = Duration::ZERO;
                    while slept < window {
                        if state.is_shutting_down() {
                            return;
                        }
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    state.ts.roll(&state.obs_snapshot());
                    let statuses = tracker.evaluate(&state.ts, state.events);
                    *state.slo_status.lock().unwrap() = statuses;
                }
            })
            .expect("roller thread spawns");
    }
    // The exposition listener is optional and bound before the handle
    // is returned, so `metrics_addr()` always resolves port 0.
    let (metrics_addr, http_thread) = match &config.metrics_addr {
        Some(addr) => {
            let (bound, thread) = crate::http::spawn(addr, Arc::clone(&state))?;
            events
                .info("serve", "exposition listener up")
                .field("addr", bound);
            (Some(bound), Some(thread))
        }
        None => (None, None),
    };
    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("hammer-serve-accept".into())
            .spawn(move || accept_loop(&listener, &state))
            .expect("acceptor thread spawns")
    };
    Ok(ServerHandle {
        local_addr,
        metrics_addr,
        acceptor: Some(acceptor),
        http: http_thread,
        state,
    })
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        if state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                if state.shutting_down.load(Ordering::SeqCst) {
                    return; // the wake-up connection, or a late client
                }
                // Admission control: a connection over the cap gets one
                // Busy frame (request id 0 — nothing was read) and is
                // dropped, so a connection flood degrades into fast
                // refusals instead of unbounded connection threads.
                if state.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    state.counters.busy.inc();
                    let busy = Reply::Busy;
                    let _ = write_frame(&mut stream, 0, busy.opcode(), 0, 0, &busy.encode());
                    continue;
                }
                state.connections.fetch_add(1, Ordering::SeqCst);
                let conn_state = Arc::clone(state);
                let addr = listener
                    .local_addr()
                    .expect("bound listener has an address");
                // Connection threads are detached: they exit on client
                // EOF (or after acknowledging Shutdown). `wait` tracks
                // *requests*, not connections, so an idle open
                // connection never blocks shutdown.
                let spawned = std::thread::Builder::new()
                    .name("hammer-serve-conn".into())
                    .spawn(move || {
                        connection_loop(stream, &conn_state, addr);
                        conn_state.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    // OS thread exhaustion: the closure never ran, so
                    // back the slot out here.
                    state.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(_) => {
                // Transient accept failure; keep serving.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    }
}

/// The per-connection thread: reads a frame, [`answer`]s it, writes the
/// reply with [`respond`], and only then reads the next frame.
fn connection_loop(mut stream: TcpStream, state: &ServerState, addr: SocketAddr) {
    // Writes are always bounded; reads are bounded per-frame by
    // `read_one_frame`.
    let _ = stream.set_write_timeout(state.io_timeout);
    loop {
        let frame = match read_one_frame(&mut stream, state) {
            FrameOutcome::Frame(frame) => Ok(frame),
            FrameOutcome::Closed => break, // EOF, dead peer, slow-loris
            FrameOutcome::Malformed(e) => Err(e),
        };
        // The drain count covers a request from frame arrival until its
        // reply is written. It is raised BEFORE `answer` checks the
        // shutdown flag, so a `wait` that sees the flag and then a zero
        // count cannot miss a request the server went on to admit.
        state.counters.unanswered.fetch_add(1, Ordering::SeqCst);
        let (id, answer, traced) = match &frame {
            Ok(frame) => {
                let (answer, traced) = answer(state, frame);
                (frame.request_id, answer, traced)
            }
            // Framing is unrecoverable mid-stream: name the fault (a
            // wrong-version peer reads which version we want) and drop
            // the connection.
            Err(e) => (0, Answer::Reply(Reply::Error(e.to_string())), None),
        };
        let acked_shutdown = matches!(answer, Answer::Reply(Reply::ShutdownAck));
        let wrote = respond(state, &mut stream, id, &answer, traced);
        if acked_shutdown {
            // The ack is on the wire before the acceptor stops.
            begin_shutdown(state, addr);
        }
        if acked_shutdown || frame.is_err() || !wrote {
            break;
        }
    }
}

/// What a connection thread writes back for one frame.
enum Answer {
    /// A reply, encoded when it is written.
    Reply(Reply),
    /// A distribution reply's payload, encoded once by the leader that
    /// computed it and written as it is.
    Distribution(Arc<[u8]>),
}

impl Answer {
    fn opcode(&self) -> u8 {
        match self {
            Self::Reply(reply) => reply.opcode(),
            Self::Distribution(_) => opcode::DISTRIBUTION,
        }
    }

    /// Whether the reply refused or failed its request.
    fn failed(&self) -> bool {
        matches!(
            self,
            Self::Reply(
                Reply::Error(_) | Reply::Busy | Reply::DeadlineExceeded | Reply::ShuttingDown
            )
        )
    }
}

/// Answers one request frame: the shutdown check, a compute request
/// through [`answer_compute`], or a cheap opcode decoded here. Traced
/// compute requests also hand back their opcode and trace context for
/// [`respond`] to finish.
fn answer(state: &ServerState, frame: &Frame) -> (Answer, Option<(u8, TraceCtx)>) {
    let op = frame.opcode;
    // A draining server answers surviving connections in-band —
    // `ShuttingDown`, not a silent close — so clients distinguish
    // "server going away" from a network failure and do not burn
    // their transport retry re-sending work it will never take.
    if state.shutting_down.load(Ordering::SeqCst) {
        return (Answer::Reply(Reply::ShuttingDown), None);
    }
    if matches!(op, opcode::RECONSTRUCT | opcode::SAMPLE_AND_RECONSTRUCT) {
        // Compute opcodes get a trace from the moment their frame is
        // complete: the client's id when it sent one, a fresh one for
        // bare clients — both end up on the reply header either way.
        let ctx = hammer_obs::timing_enabled().then(|| {
            TraceCtx::new(if frame.trace_id != 0 {
                frame.trace_id
            } else {
                gen_trace_id()
            })
        });
        let answer = answer_compute(state, frame, ctx.as_ref());
        return (answer, ctx.map(|c| (op, c)));
    }
    let reply = match Request::decode(op, &frame.payload) {
        Err(e) => Reply::Error(e.to_string()),
        Ok(Request::Ping) => Reply::Pong,
        Ok(Request::TraceDump) => {
            Reply::TraceDump(state.traces.drain().into_iter().map(Into::into).collect())
        }
        Ok(Request::MetricsSnapshot) => Reply::MetricsSnapshot(state.obs_snapshot()),
        Ok(Request::Shutdown) => Reply::ShutdownAck,
        Ok(Request::Reconstruct { .. } | Request::SampleAndReconstruct(_)) => {
            unreachable!("compute opcodes are answered by answer_compute")
        }
    };
    (Answer::Reply(reply), None)
}

/// Answers one compute request with at most three cache lookups, keyed
/// by [`request_key`] on the frame's raw bytes.
///
/// Each lookup decides the request's path in one step. A hit writes the
/// cached payload at once, undecoded. A follower waits for its leader's
/// result no longer than its own deadline, and never enters the
/// admission gate; when the leader's failure was leader-specific (its
/// deadline fired, the gate refused it, its computation panicked) the
/// follower looks the key up again and may lead itself, rather than
/// inherit a failure its budget did not earn. A leader decodes and
/// computes through [`lead`]; a panic there becomes an error reply, and
/// the dropped lease wakes the followers.
///
/// Trace spans: `cache_probe` covers hashing the key and the first
/// lookup, and a follower's wait is `coalesce_wait`.
fn answer_compute(state: &ServerState, frame: &Frame, trace: Option<&TraceCtx>) -> Answer {
    let (key, mut found) = {
        let _t = trace.map(|c| c.span("cache_probe", Some(&state.stages.cache_probe)));
        let key = request_key(frame.opcode, &frame.payload);
        (key, state.cache.lookup(key))
    };
    // The deadline clock starts before the request queues: time spent
    // following or waiting for a slot counts against it.
    let cancel = if frame.deadline_ms > 0 {
        CancelToken::after(Duration::from_millis(u64::from(frame.deadline_ms)))
    } else {
        CancelToken::new()
    };
    let mut attempts = 1;
    loop {
        // A request counts once: a hit or a follower on its first
        // lookup, a leader only once it is granted a slot.
        let first = attempts == 1;
        if first && !matches!(found, Lookup::Lead(_)) {
            state.counters.requests.inc();
        }
        let slot = match found {
            Lookup::Hit(payload) => return Answer::Distribution(payload),
            Lookup::Lead(lease) => {
                return catch_unwind(AssertUnwindSafe(|| {
                    lead(state, frame, key, lease, &cancel, trace, first)
                }))
                .unwrap_or_else(|payload| {
                    answer_of(Err(ComputeError::Panicked(hammer_pool::panic_message(
                        payload.as_ref(),
                    ))))
                });
            }
            Lookup::Follow(slot) => slot,
        };
        let waited = {
            let _t = trace.map(|c| c.span("coalesce_wait", Some(&state.stages.coalesce_wait)));
            slot.wait_until(cancel.deadline())
        };
        match waited {
            None => return Answer::Reply(Reply::DeadlineExceeded),
            Some(Err(e)) if e.is_leader_specific() => {
                if cancel.is_cancelled() {
                    return Answer::Reply(Reply::DeadlineExceeded);
                }
            }
            Some(result) => return answer_of(result),
        }
        if attempts == 3 {
            return Answer::Reply(Reply::Error(
                "computation failed repeatedly (leaders kept dying)".into(),
            ));
        }
        attempts += 1;
        found = state.cache.lookup(key);
    }
}

/// Computes the key `lease` claims. The leader decodes the frame's
/// payload first; a malformed one publishes [`ComputeError::Failed`],
/// so every request carrying the same bytes gets the same `Error` and
/// nothing is cached. It then enters the admission gate and, once
/// granted a permit, sheds an already expired deadline, loads the key
/// from the spill store or computes and encodes it, and publishes the
/// payload. A leader the gate refuses (`Busy`, `ShuttingDown`) or sheds
/// publishes [`ComputeError::Cancelled`], so its followers lead again
/// under their own budgets. A store hit promotes back into the cache
/// without computing (`store_loads`, not `cache_misses`).
/// `count_request` is false for a follower that came back to lead,
/// since it was counted when it followed.
///
/// Trace spans: `decode`, then `queue` from gate entry to grant, the
/// store probe is `store_load` (only when a store is configured), and
/// `compute` covers the computation, its encode and the publish.
fn lead(
    state: &ServerState,
    frame: &Frame,
    key: u64,
    lease: Lease<'_>,
    cancel: &CancelToken,
    trace: Option<&TraceCtx>,
    count_request: bool,
) -> Answer {
    let decoded = {
        let _t = trace.map(|c| c.span("decode", Some(&state.stages.decode)));
        Request::decode(frame.opcode, &frame.payload)
    };
    let request = match decoded {
        Ok(request) => exact(request),
        Err(e) => {
            let failed = Err(ComputeError::Failed(e.to_string()));
            state.publish(lease, failed.clone());
            return answer_of(failed);
        }
    };
    let queued_at = trace.map(TraceCtx::elapsed_ns);
    // Deadlined leaders are granted earliest-deadline-first, so a
    // mixed-budget storm spends slots on the requests that can still
    // make it (undeadlined ones are granted FIFO behind every deadlined
    // one).
    let Some(_permit) = state.admission.enter(cancel.deadline()) else {
        state.publish(lease, Err(ComputeError::Cancelled));
        // A full queue, or shutdown began after `answer` checked the
        // flag (the gate refuses once `begin_shutdown` reached it).
        state.counters.busy.inc();
        return Answer::Reply(if state.shutting_down.load(Ordering::SeqCst) {
            Reply::ShuttingDown
        } else {
            Reply::Busy
        });
    };
    if let (Some(c), Some(start)) = (trace, queued_at) {
        let waited = c.elapsed_ns().saturating_sub(start);
        c.add_span("queue", start, waited);
        state.stages.queue.record(waited);
    }
    // The cheapest cancellation point: the deadline may have expired
    // while the request waited for a slot — shed it without computing.
    if cancel.is_cancelled() {
        state.publish(lease, Err(ComputeError::Cancelled));
        state.counters.deadline_sheds.inc();
        return Answer::Reply(Reply::DeadlineExceeded);
    }
    if count_request {
        state.counters.requests.inc();
    }
    // Answers that need no computation: an empty histogram fails, and a
    // spill-tier hit (CRC- and invariant-revalidated on the way in)
    // promotes its payload back into the cache.
    let ready = match &request {
        Request::Reconstruct { counts, .. } if counts.is_empty() => Some(Err(
            ComputeError::Failed("empty histogram has no distribution".into()),
        )),
        _ => state.store.as_ref().and_then(|store| {
            let _t = trace.map(|c| c.span("store_load", Some(&state.stages.store_load)));
            store.load_payload(key).map(Ok)
        }),
    };
    let result = if let Some(result) = ready {
        state.publish(lease, result.clone());
        result
    } else {
        let _t = trace.map(|c| c.span("compute", Some(&state.stages.compute)));
        state.cache.note_miss();
        #[cfg(feature = "fault-points")]
        crate::fault::on_compute(Some(cancel));
        let result = compute(&request, cancel).map(|d| codec::distribution_payload(&d).into());
        state.publish(lease, result.clone());
        result
    };
    answer_of(result)
}

/// Writes one reply on the connection's own socket and closes the
/// request's books: the availability counters, the `encode` span (the
/// frame's bytes: a cached payload is copied in behind the header, any
/// other reply is encoded first), the `write` span, trace finalization
/// and the drain count. Returns whether the write succeeded.
fn respond(
    state: &ServerState,
    stream: &mut TcpStream,
    id: u64,
    answer: &Answer,
    traced: Option<(u8, TraceCtx)>,
) -> bool {
    // Availability accounting: every reply, and the subset that refused
    // or failed its request.
    state.counters.replies_total.inc();
    if answer.failed() {
        state.counters.replies_failed.inc();
    }
    let outcome = answer.opcode();
    let ctx = traced.as_ref().map(|(_, ctx)| ctx);
    let trace_id = ctx.map_or(0, TraceCtx::trace_id);
    let frame = {
        let _t = ctx.map(|c| c.span("encode", Some(&state.stages.encode)));
        match answer {
            Answer::Reply(reply) => encode_frame(id, outcome, 0, trace_id, &reply.encode()),
            Answer::Distribution(payload) => encode_frame(id, outcome, 0, trace_id, payload),
        }
    };
    let wrote = {
        let _t = ctx.map(|c| c.span("write", Some(&state.stages.write)));
        stream
            .write_all(&frame)
            .and_then(|()| stream.flush())
            .is_ok()
    };
    // The write is the last stop on the reply path, so the trace ends
    // here: end-to-end latency into the request histogram, and the span
    // tree into the slow-request ring when it crossed the threshold
    // (deadline misses always capture — those are the requests someone
    // will ask about).
    if let Some((op, ctx)) = traced {
        let trace = ctx.finish(op, outcome);
        state.stages.request.record(trace.total_ns);
        if state.slow_trace_ns == 0
            || trace.total_ns >= state.slow_trace_ns
            || outcome == opcode::DEADLINE_EXCEEDED
        {
            state.traces.push(trace);
        }
    }
    state.counters.unanswered.fetch_sub(1, Ordering::SeqCst);
    wrote
}

/// How long an idle connection waits between polls for a frame's first
/// byte.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// What [`read_one_frame`] produced.
enum FrameOutcome {
    /// A complete frame.
    Frame(Frame),
    /// EOF, a dead peer, or a slow-loris mid-frame stall — in every
    /// case, stop serving the connection.
    Closed,
    /// A corrupt header, foreign version or oversized payload:
    /// unrecoverable mid-stream.
    Malformed(WireError),
}

/// Reads one frame with the two-speed timeout discipline: *idle* time
/// (waiting for a frame to start) is unbounded — a parked persistent
/// connection is healthy — while *mid-frame* time is bounded by the
/// configured i/o timeout, so a peer that starts a header and stalls
/// (slow-loris) is reaped instead of pinning a connection thread
/// forever.
fn read_one_frame(stream: &mut TcpStream, state: &ServerState) -> FrameOutcome {
    let first = loop {
        let _ = stream.set_read_timeout(Some(IDLE_TICK));
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => return FrameOutcome::Closed,
            Ok(_) => break byte[0],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return FrameOutcome::Closed,
        }
    };
    let _ = stream.set_read_timeout(state.io_timeout);
    let mut framed = std::io::Cursor::new([first]).chain(stream);
    match read_frame(&mut framed) {
        Ok(frame) => FrameOutcome::Frame(frame),
        Err(WireError::Io(_)) => FrameOutcome::Closed,
        Err(e) => FrameOutcome::Malformed(e),
    }
}

/// A compute request as it is served: its config with the approximate
/// scoring path switched off, so every reply is the exact
/// reconstruction. The wire config carries no kernel tuning, so the
/// key of the raw bytes names what actually ran.
fn exact(mut request: Request) -> Request {
    if let Request::Reconstruct { config, .. }
    | Request::SampleAndReconstruct(SampleJob { config, .. }) = &mut request
    {
        config.kernel.ann.enabled = false;
    }
    request
}

/// The distribution-cache (and spill-store) key of a compute request:
/// a fingerprint of its opcode and raw payload bytes. The wire form is
/// canonical — sorted keys, no zero counts, only the algorithmic config
/// knobs — so equal bytes mean an equal request, and the key is taken
/// before anything is decoded.
fn request_key(op: u8, payload: &[u8]) -> u64 {
    let mut key = Fingerprinter::new();
    key.write_u8(op);
    key.write_bytes(payload);
    key.finish()
}

fn answer_of(result: ComputeResult) -> Answer {
    match result {
        Ok(payload) => Answer::Distribution(payload),
        Err(ComputeError::Cancelled) => Answer::Reply(Reply::DeadlineExceeded),
        Err(ComputeError::Failed(msg)) => Answer::Reply(Reply::Error(msg)),
        Err(ComputeError::Panicked(msg)) => {
            Answer::Reply(Reply::Error(format!("computation panicked: {msg}")))
        }
    }
}

/// Runs one compute request on the calling thread.
fn compute(request: &Request, cancel: &CancelToken) -> Result<Distribution, ComputeError> {
    match request {
        Request::Reconstruct { config, counts } => Hammer::with_config(*config)
            .try_reconstruct_counts(counts, cancel)
            .map_err(|Cancelled| ComputeError::Cancelled),
        Request::SampleAndReconstruct(job) => run_sample_job(job, cancel),
        Request::Ping | Request::TraceDump | Request::MetricsSnapshot | Request::Shutdown => {
            unreachable!("cheap opcodes are answered on the connection thread")
        }
    }
}

/// Runs one simulate-then-reconstruct job.
fn run_sample_job(job: &SampleJob, cancel: &CancelToken) -> Result<Distribution, ComputeError> {
    use rand::SeedableRng;
    let fail = |msg: String| ComputeError::Failed(msg);
    let device = job.device.to_device().map_err(fail)?;
    if job.trials == 0 {
        return Err(ComputeError::Failed("zero trials".into()));
    }
    if job.trials > 10_000_000 {
        return Err(ComputeError::Failed(format!(
            "trial budget {} exceeds the 10M cap",
            job.trials
        )));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(job.seed);
    let counts = AutoEngine::new(&device)
        .sample_with_cancel(&job.circuit, job.trials, &mut rng, cancel)
        .map_err(|e| match e {
            hammer_sim::SimError::Cancelled => ComputeError::Cancelled,
            other => ComputeError::Failed(other.to_string()),
        })?;
    Hammer::with_config(job.config)
        .try_reconstruct_counts(&counts, cancel)
        .map_err(|Cancelled| ComputeError::Cancelled)
}
