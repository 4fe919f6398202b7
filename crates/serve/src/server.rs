//! The server runtime: TCP acceptor, per-connection framed
//! reader/writer threads, a bounded worker-pool request queue with
//! `Busy` backpressure, and graceful shutdown that drains in-flight
//! work.
//!
//! # Thread anatomy
//!
//! ```text
//! acceptor ──► per-connection reader ──► request pool (WorkerPool,
//!                   │    ▲                bounded EDF queue) ──┐
//!                   │    └── Busy reply when full              │ compute
//!                   ▼                                          ▼
//!              per-connection writer ◄──── mpsc ◄──── reply (id, frame)
//! ```
//!
//! The request pool is the only persistent pool: it admits requests
//! (bounded queue, `Busy` backpressure, earliest deadline first) and
//! runs each one on a request worker. The computation inside a request
//! — kernel tiles and simulator trial blocks — fans out on scoped
//! threads through [`hammer_pool::run_tiles`] and joins before the
//! request worker moves on, so compute never queues behind requests
//! and a request job never waits on its own pool.
//!
//! # Observability
//!
//! Every server owns a private [`hammer_obs::Registry`] — counters and
//! per-stage latency histograms are exact per instance, so tests can
//! boot several servers in one process and assert on each. Compute
//! requests carry a [`TraceCtx`] from frame arrival to the socket
//! write: each stage (decode, queue wait, cache probe, store load,
//! compute, encode, write) opens a span that lands both in the
//! request's own span list and in the matching stage histogram. Slow
//! requests (and every `DeadlineExceeded`) park their span tree in a
//! bounded ring, drained by the `TraceDump` opcode. Tracing costs one
//! `Instant::now` pair and an atomic add per stage, and the whole
//! span/histogram layer sits behind [`hammer_obs::timing_enabled`];
//! counters stay exact either way.

use std::io::{BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hammer_core::{CancelToken, Cancelled, Hammer, HammerConfig};
use hammer_dist::fingerprint::Fnv1a;
use hammer_dist::{metrics, Distribution};
use hammer_obs::{
    gen_trace_id, Counter, EventLog, Histogram, MetricsSnapshot, Registry, RollupConfig, SloSpec,
    SloStatus, SloTracker, TimeSeries, TraceCtx, TraceRing,
};
use hammer_pool::WorkerPool;
use hammer_sim::AutoEngine;

use crate::cache::{Claim, ComputeError, ComputeResult, DistCache, InFlight};
use crate::codec::{Reply, Request, SampleJob};
use crate::protocol::{opcode, read_frame, write_frame, Frame, WireError};
use crate::store::DistStore;

/// Serving configuration (the `repro serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Request-execution workers.
    pub workers: usize,
    /// Queued (not yet running) requests beyond which the server
    /// replies `Busy`.
    pub queue_limit: usize,
    /// Distribution-cache budget in mebibytes.
    pub cache_mb: usize,
    /// Per-connection socket timeout for mid-frame reads and all
    /// writes. A client that starts a frame must finish it within this
    /// window (slow-loris defense); *idle* connections — no frame in
    /// progress — are never timed out. `None` disables.
    pub io_timeout: Option<Duration>,
    /// Concurrent-connection cap; connections over the limit get one
    /// `Busy` frame and are dropped.
    pub max_connections: usize,
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
            max_connections: 1024,
            store_dir: None,
            store_mb: 256,
            slow_trace_ms: 500,
            metrics_addr: None,
            rollup_window_ms: 1_000,
            slos: Vec::new(),
        }
    }
}

/// Capacity of the slow-request trace ring: deep enough to hold a
/// burst of outliers between `TraceDump` polls, small enough that an
/// unpolled server caps its memory at a few dozen span trees.
const TRACE_RING_CAP: usize = 64;

/// Counters owned by the runtime (cache counters live in [`DistCache`] /
/// [`InFlight`]). The request/refusal/shed tallies are registry
/// counters — same cells the `MetricsSnapshot` opcode exposes — while
/// the two lifecycle watermarks stay plain atomics: they are shutdown
/// bookkeeping, not metrics.
struct RuntimeCounters {
    requests: Counter,
    busy: Counter,
    /// Queued jobs shed at dequeue because their deadline had already
    /// expired — answered `DeadlineExceeded` without computing.
    deadline_sheds: Counter,
    /// Every reply queued to a writer, and the subset that refused or
    /// failed the request (`Error` / `Busy` / `DeadlineExceeded` /
    /// `ShuttingDown`) — the numerator and denominator of the default
    /// availability SLO.
    replies_total: Counter,
    replies_failed: Counter,
    active_jobs: AtomicUsize,
    /// Replies queued to a connection writer but not yet written to the
    /// socket. Graceful shutdown waits for this to reach zero, so the
    /// final acknowledgements are flushed before `wait` returns (and
    /// before a hosting process exits, killing the detached writers).
    pending_replies: AtomicUsize,
}

impl RuntimeCounters {
    fn registered(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            busy: registry.counter("serve.busy_rejections"),
            deadline_sheds: registry.counter("serve.deadline_sheds"),
            replies_total: registry.counter("serve.replies.total"),
            replies_failed: registry.counter("serve.replies.failed"),
            active_jobs: AtomicUsize::new(0),
            pending_replies: AtomicUsize::new(0),
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
    request_pool: WorkerPool,
    cache: DistCache,
    /// The persistent spill tier, if configured and openable.
    store: Option<DistStore>,
    inflight: InFlight,
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
    /// Rollup rings the roller thread folds [`obs_snapshot`]
    /// (ServerState::obs_snapshot) into every window.
    ts: TimeSeries,
    /// The structured event log; the process-global one so chaos /
    /// store / fault events land next to serve events and `/events`
    /// shows them all.
    events: &'static EventLog,
    /// Latest SLO evaluation, refreshed by the roller every window.
    slo_status: Mutex<Vec<SloStatus>>,
    shutting_down: AtomicBool,
    io_timeout: Option<Duration>,
    max_connections: usize,
    connections: AtomicUsize,
}

impl ServerState {
    /// One coherent snapshot of every registered series: gauges are
    /// refreshed first, then this server's registry is merged over the
    /// process-global one (pool queue waits, kernel and sim timings).
    pub(crate) fn obs_snapshot(&self) -> MetricsSnapshot {
        let (_, _, _, entries, bytes) = self.cache.stats();
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
            .set(i64::try_from(self.request_pool.queued_jobs()).unwrap_or(i64::MAX));
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

    /// Inserts a completed distribution into the cache, demoting any
    /// evicted entries into the spill store. Spill failures lose only
    /// the demotion (the store skips that entry), never the request.
    fn insert_cached(&self, key: u64, value: Arc<Distribution>) {
        let evicted = self.cache.insert(key, value);
        if let Some(store) = &self.store {
            for (k, d) in evicted {
                let _ = store.spill(k, &d);
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

    /// A cloneable, non-owning view of the running server for digest /
    /// monitoring threads: it can read metric snapshots but cannot shut
    /// the server down or block its drain.
    #[must_use]
    pub fn observer(&self) -> ServeObserver {
        ServeObserver {
            state: Arc::clone(&self.state),
        }
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
        // Drain: every accepted job decrements `active_jobs` after its
        // reply is queued, and every queued reply decrements
        // `pending_replies` once written to the socket — so when both
        // are zero, all accepted work is answered AND flushed.
        while self.state.counters.active_jobs.load(Ordering::SeqCst) > 0
            || self.state.counters.pending_replies.load(Ordering::SeqCst) > 0
        {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Graceful shutdowns flush the whole resident hot set — not
        // just past evictions — into the spill tier, hottest entries
        // last so they supersede on replay: the next start over this
        // directory serves warm. (A crash skips this; the store still
        // holds every spill fsync'd before the crash.)
        if let Some(store) = &self.state.store {
            for (key, value) in self.state.cache.entries() {
                let _ = store.spill(key, &value);
            }
        }
        self.state.obs_snapshot()
    }
}

/// A cloneable read-only view of a running server, handed to the
/// `repro serve` digest thread (and anything else that wants periodic
/// snapshots without owning the [`ServerHandle`]).
#[derive(Clone)]
pub struct ServeObserver {
    state: Arc<ServerState>,
}

impl ServeObserver {
    /// Current metric-registry snapshot (server + process-global).
    #[must_use]
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        self.state.obs_snapshot()
    }

    /// Whether shutdown has begun (digest threads use this to stop).
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.state.shutting_down.load(Ordering::SeqCst)
    }
}

/// Flags shutdown and unblocks the acceptor with a wake-up connection.
fn begin_shutdown(state: &ServerState, addr: SocketAddr) {
    if !state.shutting_down.swap(true, Ordering::SeqCst) {
        // Already-queued jobs drain; new submissions are refused at the
        // pool too (belt and braces under the reader-side flag check).
        state.request_pool.begin_shutdown();
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
        match DistStore::open_registered(dir, budget, &obs) {
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
        request_pool: WorkerPool::with_queue_limit(config.workers.max(1), config.queue_limit),
        cache: DistCache::with_registry(config.cache_mb.saturating_mul(1024 * 1024), &obs),
        store,
        inflight: InFlight::with_registry(&obs),
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
        max_connections: config.max_connections.max(1),
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
            Ok((stream, _)) => {
                if state.shutting_down.load(Ordering::SeqCst) {
                    return; // the wake-up connection, or a late client
                }
                // Admission control: a connection over the cap gets one
                // Busy frame (request id 0 — nothing was read) and is
                // dropped, so a connection flood degrades into fast
                // refusals instead of unbounded reader threads.
                if state.connections.load(Ordering::SeqCst) >= state.max_connections {
                    state.counters.busy.inc();
                    let mut w = BufWriter::new(stream);
                    let busy = Reply::Busy;
                    let _ = write_frame(&mut w, 0, busy.opcode(), 0, 0, &busy.encode());
                    continue;
                }
                state.connections.fetch_add(1, Ordering::SeqCst);
                let conn_state = Arc::clone(state);
                let addr = listener
                    .local_addr()
                    .expect("bound listener has an address");
                // Readers are detached: they exit on client EOF (or
                // after relaying Shutdown). `wait` tracks *jobs*, not
                // connections, so an idle open connection never blocks
                // shutdown.
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

/// A reply queued to the writer thread: request id, the reply itself,
/// and — for traced compute requests — the request opcode plus the
/// trace context the writer finalizes after the socket write.
type Outbound = (u64, Reply, Option<(u8, TraceCtx)>);

/// The per-connection reader: parses frames, answers cheap opcodes
/// inline, and queues compute opcodes onto the bounded request pool.
/// Replies flow through an mpsc channel to a dedicated writer thread,
/// so slow computations never block the read side and out-of-order
/// completion is fine (the request id disambiguates).
#[allow(clippy::too_many_lines)]
fn connection_loop(stream: TcpStream, state: &Arc<ServerState>, addr: SocketAddr) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (raw_tx, reply_rx) = mpsc::channel::<Outbound>();
    let writer = {
        let state = Arc::clone(state);
        std::thread::Builder::new()
            .name("hammer-serve-write".into())
            .spawn(move || {
                let mut w = BufWriter::new(write_half);
                let mut broken = false;
                // Keep draining after a write failure: every queued
                // reply must still decrement `pending_replies` or
                // shutdown would wait forever on a dead client.
                while let Ok((id, reply, traced)) = reply_rx.recv() {
                    let outcome = reply.opcode();
                    let trace_id = traced.as_ref().map_or(0, |(_, ctx)| ctx.trace_id());
                    if !broken {
                        let payload = {
                            let _t = traced
                                .as_ref()
                                .map(|(_, ctx)| ctx.span("encode", Some(&state.stages.encode)));
                            reply.encode()
                        };
                        let wrote = {
                            let _t = traced
                                .as_ref()
                                .map(|(_, ctx)| ctx.span("write", Some(&state.stages.write)));
                            write_frame(&mut w, id, outcome, 0, trace_id, &payload)
                        };
                        if wrote.is_err() {
                            broken = true;
                        }
                    }
                    // The writer is the last stop on the reply path, so
                    // it finalizes the trace: end-to-end latency into
                    // the request histogram, and the span tree into the
                    // slow-request ring when it crossed the threshold
                    // (deadline misses always capture — those are the
                    // requests someone will ask about).
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
                    state
                        .counters
                        .pending_replies
                        .fetch_sub(1, Ordering::SeqCst);
                }
            })
            .expect("writer thread spawns")
    };
    // Every queued reply is pre-counted so `wait` can see it before the
    // writer picks it up.
    let reply_tx = {
        let state = Arc::clone(state);
        move |message: Outbound| {
            // Availability accounting: every reply, and the subset that
            // refused or failed its request.
            state.counters.replies_total.inc();
            if matches!(
                message.1,
                Reply::Error(_) | Reply::Busy | Reply::DeadlineExceeded | Reply::ShuttingDown
            ) {
                state.counters.replies_failed.inc();
            }
            state
                .counters
                .pending_replies
                .fetch_add(1, Ordering::SeqCst);
            if raw_tx.send(message).is_err() {
                // Writer gone (unreachable while a sender lives, but do
                // not leak the pre-count if it ever happens).
                state
                    .counters
                    .pending_replies
                    .fetch_sub(1, Ordering::SeqCst);
            }
        }
    };

    // Writes are always bounded; reads are bounded per-frame by the
    // idle-tolerant loop below.
    let _ = read_half_timeouts(&stream, state.io_timeout);
    let mut read_half = stream;
    loop {
        let frame = match read_one_frame(&mut read_half, state) {
            FrameOutcome::Frame(frame) => frame,
            FrameOutcome::Closed => break, // EOF, dead peer, slow-loris
            FrameOutcome::Malformed(e) => {
                // Framing is unrecoverable mid-stream: name the fault
                // (a wrong-version peer reads which version we want) and
                // drop the connection.
                reply_tx((0, Reply::Error(e.to_string()), None));
                break;
            }
        };
        let Frame {
            request_id: id,
            opcode: op,
            deadline_ms,
            trace_id,
            payload,
        } = frame;
        // A draining server answers surviving connections in-band —
        // `ShuttingDown`, not a silent close — so clients distinguish
        // "server going away" from a network failure and do not burn
        // their transport retry re-sending work it will never take.
        if state.shutting_down.load(Ordering::SeqCst) {
            reply_tx((id, Reply::ShuttingDown, None));
            continue;
        }
        // Compute opcodes get a trace from the moment their frame is
        // complete: the client's id when it sent one, a fresh one for
        // bare clients — both end up on the reply header either way.
        let is_compute = matches!(
            op,
            opcode::RECONSTRUCT | opcode::METRICS | opcode::SAMPLE_AND_RECONSTRUCT
        );
        let ctx = if is_compute && hammer_obs::timing_enabled() {
            Some(TraceCtx::new(if trace_id != 0 {
                trace_id
            } else {
                gen_trace_id()
            }))
        } else {
            None
        };
        let request = {
            let _t = ctx
                .as_ref()
                .map(|c| c.span("decode", Some(&state.stages.decode)));
            Request::decode(op, &payload)
        };
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                reply_tx((id, Reply::Error(e.to_string()), ctx.map(|c| (op, c))));
                continue;
            }
        };
        // The deadline clock starts at frame arrival: time the request
        // spent queued behind the admission queue counts against it.
        let cancel = if deadline_ms > 0 {
            CancelToken::after(Duration::from_millis(u64::from(deadline_ms)))
        } else {
            CancelToken::new()
        };
        match request {
            Request::Ping => {
                reply_tx((id, Reply::Pong, None));
            }
            Request::TraceDump => {
                let entries = state.traces.drain().into_iter().map(Into::into).collect();
                reply_tx((id, Reply::TraceDump(entries), None));
            }
            Request::MetricsSnapshot => {
                reply_tx((id, Reply::MetricsSnapshot(state.obs_snapshot()), None));
            }
            Request::Shutdown => {
                reply_tx((id, Reply::ShutdownAck, None));
                begin_shutdown(state, addr);
                break;
            }
            compute @ (Request::Reconstruct { .. }
            | Request::Metrics { .. }
            | Request::SampleAndReconstruct(_)) => {
                // Count the job BEFORE re-checking the shutdown flag:
                // `wait` trusts `active_jobs`, so the increment must be
                // visible before a concurrent `wait` could observe
                // "nothing pending". If shutdown began in the meantime,
                // back the count out and refuse — never submit work a
                // completed `wait` would no longer cover.
                state.counters.active_jobs.fetch_add(1, Ordering::SeqCst);
                if state.shutting_down.load(Ordering::SeqCst) {
                    state.counters.active_jobs.fetch_sub(1, Ordering::SeqCst);
                    state.counters.busy.inc();
                    reply_tx((id, Reply::ShuttingDown, ctx.map(|c| (op, c))));
                    continue;
                }
                let job_state = Arc::clone(state);
                let job_tx = reply_tx.clone();
                let trace = ctx.clone();
                // The queue-wait span runs from here (submission) to
                // the top of the job closure (dequeue on a worker).
                let queued_at = trace.as_ref().map(TraceCtx::elapsed_ns);
                // Deadlined jobs queue earliest-deadline-first, so a
                // mixed-budget storm spends workers on the requests
                // that can still make it (undeadlined jobs queue FIFO
                // behind every deadlined one).
                let queue_deadline = cancel.deadline();
                let submitted =
                    state
                        .request_pool
                        .try_submit_with_deadline(queue_deadline, move || {
                            if let (Some(c), Some(start)) = (&trace, queued_at) {
                                let waited = c.elapsed_ns().saturating_sub(start);
                                c.add_span("queue", start, waited);
                                job_state.stages.queue.record(waited);
                            }
                            // The cheapest cancellation point: the deadline
                            // may have expired while the job sat in the
                            // queue — shed it without computing.
                            let reply = if cancel.is_cancelled() {
                                job_state.counters.deadline_sheds.inc();
                                Reply::DeadlineExceeded
                            } else {
                                handle_compute(&job_state, compute, &cancel, trace.as_ref())
                            };
                            job_tx((id, reply, trace.map(|c| (op, c))));
                            job_state
                                .counters
                                .active_jobs
                                .fetch_sub(1, Ordering::SeqCst);
                        });
                if submitted.is_err() {
                    state.counters.active_jobs.fetch_sub(1, Ordering::SeqCst);
                    state.counters.busy.inc();
                    let refusal = if state.shutting_down.load(Ordering::SeqCst) {
                        Reply::ShuttingDown
                    } else {
                        Reply::Busy
                    };
                    reply_tx((id, refusal, ctx.map(|c| (op, c))));
                }
            }
        }
    }
    drop(reply_tx);
    // Jobs still in flight hold their own senders; the writer exits
    // once the last one completes. Join so the writer cannot outlive
    // the data it flushes.
    let _ = writer.join();
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
/// (slow-loris) is reaped instead of pinning a reader thread forever.
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

/// Sets the write timeout for a connection (reads are managed
/// per-frame by [`read_one_frame`]; socket options are shared across
/// the cloned halves).
fn read_half_timeouts(stream: &TcpStream, timeout: Option<Duration>) -> std::io::Result<()> {
    stream.set_write_timeout(timeout)
}

/// Executes one compute request on a pool worker.
fn handle_compute(
    state: &Arc<ServerState>,
    request: Request,
    cancel: &CancelToken,
    trace: Option<&TraceCtx>,
) -> Reply {
    state.counters.requests.inc();
    match request {
        Request::Reconstruct { config, counts } => {
            if counts.is_empty() {
                return Reply::Error("empty histogram has no distribution".into());
            }
            let config = exact(config);
            let mut key = Fnv1a::new();
            key.write_bytes(b"reconstruct/v1");
            key.write_u64(counts.fingerprint());
            key.write_u64(config.fingerprint());
            let job_cancel = cancel.clone();
            cached_compute(state, key.finish(), cancel, trace, move || {
                Hammer::with_config(config)
                    .try_reconstruct_counts(&counts, &job_cancel)
                    .map_err(|Cancelled| ComputeError::Cancelled)
            })
        }
        Request::SampleAndReconstruct(mut job) => {
            job.config = exact(job.config);
            let key = job.fingerprint();
            let job_cancel = cancel.clone();
            cached_compute(state, key, cancel, trace, move || {
                run_sample_job(&job, &job_cancel)
            })
        }
        Request::Metrics { dist, correct } => {
            if correct.is_empty() {
                return Reply::Error("empty correct-outcome set".into());
            }
            if let Some(bad) = correct.iter().find(|x| x.len() != dist.n_bits()) {
                return Reply::Error(format!(
                    "correct outcome width {} does not match distribution width {}",
                    bad.len(),
                    dist.n_bits()
                ));
            }
            let _t = trace.map(|c| c.span("compute", Some(&state.stages.compute)));
            Reply::Metrics(crate::codec::MetricsReply {
                pst: metrics::pst(&dist, &correct),
                ist: metrics::ist(&dist, &correct),
                ehd: metrics::ehd(&dist, &correct),
                uniform_ehd: metrics::uniform_ehd(dist.n_bits()),
            })
        }
        Request::Ping | Request::TraceDump | Request::MetricsSnapshot | Request::Shutdown => {
            unreachable!("cheap opcodes are answered inline by the reader")
        }
    }
}

/// The configuration a served reconstruction runs under: the wire
/// config with the approximate scoring path switched off, so every
/// reply is the exact reconstruction. Applied before the cache key is
/// hashed, so the key names what actually ran.
fn exact(mut config: HammerConfig) -> HammerConfig {
    config.kernel.ann.enabled = false;
    config
}

/// The cache + coalescing discipline around one computation.
///
/// The leader computes under a publish-on-drop guard, so **every** exit
/// — success, failure, cancellation, panic — wakes the followers.
/// Followers wait no longer than their own deadline, and when the
/// leader's failure was leader-specific (its deadline fired, its worker
/// panicked) they re-claim the key and compute for themselves rather
/// than inherit a failure their budget did not earn.
///
/// A leader that misses the cache probes the persistent store before
/// computing: a disk hit promotes back into the cache and skips the
/// computation entirely (`store_loads`, not `cache_misses`).
///
/// Trace spans: the first cache probe is `cache_probe`, a follower's
/// wait is `coalesce_wait`, the leader's store probe is `store_load`
/// (only when a store is configured) and the computation itself is
/// `compute`.
fn cached_compute<F>(
    state: &Arc<ServerState>,
    key: u64,
    cancel: &CancelToken,
    trace: Option<&TraceCtx>,
    compute: F,
) -> Reply
where
    F: FnOnce() -> Result<Distribution, ComputeError>,
{
    let probed = {
        let _t = trace.map(|c| c.span("cache_probe", Some(&state.stages.cache_probe)));
        state.cache.get(key)
    };
    if let Some(hit) = probed {
        return Reply::Distribution((*hit).clone());
    }
    let mut compute = Some(compute);
    // Bounded re-lead: a follower whose leader was cancelled or
    // panicked retries leadership a few times, but a pathological run
    // of dying leaders must not loop forever.
    for _ in 0..3 {
        match state.inflight.claim(key) {
            Claim::Leader => {
                let guard = state.inflight.publish_guard(key);
                // A racing leader may have completed between our cache
                // probe and our claim; serve its entry rather than
                // recompute. (`get` counted our probe as the miss; this
                // probe would count a hit, which is accurate — the
                // entry IS there.)
                let result: ComputeResult = if let Some(hit) = state.cache.get(key) {
                    Ok(hit)
                } else if cancel.is_cancelled() {
                    // Do not burn a compute the requester stopped
                    // waiting for; followers re-lead under their own
                    // budgets.
                    Err(ComputeError::Cancelled)
                } else {
                    let loaded = state.store.as_ref().and_then(|store| {
                        let _t =
                            trace.map(|c| c.span("store_load", Some(&state.stages.store_load)));
                        store.load(key)
                    });
                    if let Some(d) = loaded {
                        // Spill-tier hit: promote back into the cache
                        // and answer without recomputing. The record
                        // was CRC- and invariant-revalidated on the way
                        // in.
                        let dist = Arc::new(d);
                        state.insert_cached(key, Arc::clone(&dist));
                        Ok(dist)
                    } else {
                        state.cache.note_miss();
                        let job = compute.take().expect("leader computes at most once");
                        #[cfg(feature = "fault-points")]
                        let fault_cancel = cancel.clone();
                        let _t = trace.map(|c| c.span("compute", Some(&state.stages.compute)));
                        match catch_unwind(AssertUnwindSafe(move || {
                            #[cfg(feature = "fault-points")]
                            crate::fault::on_compute(Some(&fault_cancel));
                            job()
                        })) {
                            Ok(Ok(dist)) => {
                                let dist = Arc::new(dist);
                                state.insert_cached(key, Arc::clone(&dist));
                                Ok(dist)
                            }
                            Ok(Err(e)) => Err(e),
                            Err(payload) => Err(ComputeError::Panicked(
                                hammer_pool::panic_message(payload.as_ref()),
                            )),
                        }
                    }
                };
                guard.publish(result.clone());
                return reply_of(result);
            }
            follower @ Claim::Follower(_) => {
                let waited = {
                    let _t =
                        trace.map(|c| c.span("coalesce_wait", Some(&state.stages.coalesce_wait)));
                    follower.wait_until(cancel.deadline())
                };
                let Some(result) = waited else {
                    return Reply::DeadlineExceeded;
                };
                match result {
                    Err(e) if e.is_leader_specific() => {
                        // The *leader's* deadline fired or its worker
                        // died; our budget may still be live. Probe the
                        // cache (a racing re-leader may have finished)
                        // and try to lead ourselves.
                        if let Some(hit) = state.cache.get(key) {
                            return Reply::Distribution((*hit).clone());
                        }
                        if cancel.is_cancelled() {
                            return Reply::DeadlineExceeded;
                        }
                    }
                    other => return reply_of(other),
                }
            }
        }
    }
    Reply::Error("computation failed repeatedly (leaders kept dying)".into())
}

fn reply_of(result: ComputeResult) -> Reply {
    match result {
        Ok(dist) => Reply::Distribution((*dist).clone()),
        Err(ComputeError::Cancelled) => Reply::DeadlineExceeded,
        Err(ComputeError::Failed(msg)) => Reply::Error(msg),
        Err(ComputeError::Panicked(msg)) => Reply::Error(format!("computation panicked: {msg}")),
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
