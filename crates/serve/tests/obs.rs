//! Observability end-to-end: trace-id propagation from client to
//! server span dump, reply headers echoing the request's trace id,
//! `MetricsSnapshot` agreeing with the legacy `Stats` counters, and the
//! chaos proxy tagging injected faults with the victim's trace id.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hammer_core::HammerConfig;
use hammer_dist::{BitString, Counts};
use hammer_obs::SeriesValue;
use hammer_serve::chaos::{ChaosProxy, Fault};
use hammer_serve::codec::TraceDumpEntry;
use hammer_serve::protocol::{self, opcode};
use hammer_serve::{serve, Request, ServeClient, ServeConfig, ServerHandle};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hammer-obs-e2e-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bs(s: &str) -> BitString {
    BitString::parse(s).unwrap()
}

fn small_counts(salt: u64) -> Counts {
    let mut counts = Counts::new(6).unwrap();
    counts.record_n(bs("111111"), 300 + salt);
    counts.record_n(bs("111101"), 90);
    counts.record_n(bs("001100"), 210);
    counts.record_n(bs("000000"), 55);
    counts
}

/// Starts a capture-everything server (slow threshold 0) with a spill
/// store, so a cold reconstruct walks every stage of the pipeline.
fn start_traced(store_dir: Option<PathBuf>) -> ServerHandle {
    serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        slow_trace_ms: 0,
        store_dir,
        store_mb: 16,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// Polls the server's trace ring until a trace with `trace_id` shows
/// up (the writer thread finalizes a trace *after* flushing the reply,
/// so the dump can race one reply behind).
fn await_trace(client: &mut ServeClient, trace_id: u64) -> TraceDumpEntry {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut drained = Vec::new();
    while Instant::now() < deadline {
        drained.extend(client.trace_dump().expect("trace dump"));
        if let Some(entry) = drained.iter().find(|e| e.trace_id == trace_id) {
            return entry.clone();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("trace {trace_id:#x} never reached the dump ring; got {drained:?}");
}

/// The acceptance path: a client-stamped trace id survives the wire,
/// names every pipeline stage of a cold store-miss reconstruct in
/// order, and comes back through `TraceDump`.
#[test]
fn client_trace_id_spans_the_whole_cold_reconstruct() {
    let server = start_traced(Some(scratch_dir()));
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr)
        .expect("client connects")
        .with_trace_id(0xABCD_1234);
    let dist = client
        .reconstruct(&small_counts(0), &HammerConfig::paper())
        .expect("reconstruct succeeds");
    assert!((dist.total_mass() - 1.0).abs() < 1e-9);
    assert_eq!(client.last_trace_id(), 0xABCD_1234);

    let entry = await_trace(&mut client, 0xABCD_1234);
    assert_eq!(entry.opcode, opcode::RECONSTRUCT);
    assert_eq!(entry.outcome, opcode::DISTRIBUTION);
    assert!(entry.total_ns > 0);

    // Every stage of a cold store-miss reconstruct, present and in
    // pipeline order (the span list is sorted by start time).
    let stages: Vec<&str> = entry.spans.iter().map(|s| s.stage.as_str()).collect();
    for expected in [
        "decode",
        "queue",
        "cache_probe",
        "store_load",
        "compute",
        "encode",
        "write",
    ] {
        assert!(
            stages.contains(&expected),
            "stage {expected} missing from {stages:?}"
        );
    }
    let starts: Vec<u64> = entry.spans.iter().map(|s| s.start_ns).collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]), "spans unsorted");
    let pos = |name: &str| stages.iter().position(|s| *s == name).unwrap();
    assert!(pos("decode") < pos("queue"));
    assert!(pos("queue") < pos("cache_probe"));
    assert!(pos("cache_probe") < pos("store_load"));
    assert!(pos("store_load") < pos("compute"));
    assert!(pos("compute") < pos("encode"));
    assert!(pos("encode") <= pos("write"));

    client.shutdown().expect("shutdown");
    let _ = server.wait();
}

/// A bare client (no pinned id) still gets traced: the server
/// generates a nonzero id at frame arrival and echoes it on the reply
/// header, where a raw reader can see it.
#[test]
fn reply_headers_echo_the_request_trace_id() {
    let server = start_traced(None);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let request = Request::Reconstruct {
        config: HammerConfig::paper(),
        counts: small_counts(7),
    };
    protocol::write_frame_traced(
        &mut stream,
        42,
        request.opcode(),
        0,
        0xFEED_F00D,
        &request.encode(),
    )
    .expect("request written");
    let frame = protocol::read_frame_full(&mut stream).expect("reply frame");
    assert_eq!(frame.request_id, 42);
    assert_eq!(frame.opcode, opcode::DISTRIBUTION);
    assert_eq!(frame.trace_id, 0xFEED_F00D, "reply must echo the trace id");

    // Untraced opcodes reply with trace id 0.
    protocol::write_frame(&mut stream, 43, opcode::PING, &[]).expect("ping written");
    let pong = protocol::read_frame_full(&mut stream).expect("pong frame");
    assert_eq!(pong.opcode, opcode::PONG);
    assert_eq!(pong.trace_id, 0);

    server.shutdown();
    let _ = server.wait();
}

/// `MetricsSnapshot` is the registry view of the same cells `Stats`
/// reads: the migrated counters must agree exactly, the per-stage
/// histograms must have seen every request, and the process-global
/// compute-tier series must be merged in.
#[test]
fn metrics_snapshot_agrees_with_stats() {
    let server = start_traced(None);
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("client connects");
    let config = HammerConfig::paper();
    // Two identical requests: one miss, one cache hit.
    let _ = client.reconstruct(&small_counts(1), &config).expect("cold");
    let _ = client.reconstruct(&small_counts(1), &config).expect("hot");

    let stats = client.stats().expect("stats");
    let snap = client.metrics_snapshot().expect("snapshot");
    assert_eq!(snap.counter("serve.requests"), Some(stats.requests));
    assert_eq!(snap.counter("serve.cache.hits"), Some(stats.cache_hits));
    assert_eq!(snap.counter("serve.cache.misses"), Some(stats.cache_misses));
    assert_eq!(snap.counter("serve.coalesced"), Some(stats.coalesced));
    assert_eq!(
        snap.counter("serve.busy_rejections"),
        Some(stats.busy_rejections)
    );
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.cache_hits, 1);

    // Gauges were refreshed at snapshot time.
    assert_eq!(
        snap.gauge("serve.cache.entries"),
        Some(i64::try_from(stats.cache_entries).unwrap())
    );

    // Both requests crossed the request histogram; only the miss
    // computed.
    let request_hist = snap
        .histogram("serve.request_ns")
        .expect("request histogram registered");
    assert_eq!(request_hist.count(), 2);
    let compute_hist = snap
        .histogram("serve.stage.compute_ns")
        .expect("compute histogram registered");
    assert_eq!(compute_hist.count(), 1);

    // The merge brought in the process-global compute-tier series: the
    // request pool records every dequeue, the kernel every
    // reconstruction (count is cumulative across the process, so only
    // nonzero is asserted).
    let queue_wait = snap
        .histogram("pool.queue_wait_ns")
        .expect("global pool histogram merged in");
    assert!(queue_wait.count() > 0);
    let reconstruct = snap
        .histogram("core.reconstruct_ns")
        .expect("global kernel histogram merged in");
    assert!(reconstruct.count() > 0);

    // Every series decodes to a typed value.
    for series in &snap.series {
        match &series.value {
            SeriesValue::Counter(_) | SeriesValue::Gauge(_) | SeriesValue::Histogram(_) => {}
        }
    }

    client.shutdown().expect("shutdown");
    let _ = server.wait();
}

/// Satellite: the chaos proxy logs the faults it fires with the
/// victim connection's trace id, sniffed off the v3 header.
#[test]
fn chaos_proxy_tags_faults_with_the_victim_trace_id() {
    let server = start_traced(None);
    let proxy =
        ChaosProxy::spawn(server.local_addr(), vec![Fault::DelayMs(20)]).expect("proxy starts");
    let mut client = ServeClient::connect(proxy.local_addr().to_string())
        .expect("client connects via proxy")
        .with_trace_id(0xC0FF_EE00_0000_0001);
    let _ = client
        .reconstruct(&small_counts(3), &HammerConfig::paper())
        .expect("reconstruct through the proxy");

    let log = proxy.fault_log();
    assert!(!log.is_empty(), "the delay fault fired at least once");
    let event = &log[0];
    assert_eq!(event.fault, Fault::DelayMs(20));
    assert_eq!(
        event.trace_id,
        Some(0xC0FF_EE00_0000_0001),
        "proxy sniffed the pinned trace id from the frame header"
    );

    drop(proxy);
    server.shutdown();
    let _ = server.wait();
}

/// A reconstruction large enough to pin the single worker well past the
/// client's 20 ms head start: 40K distinct outcomes take a few hundred
/// milliseconds on a 2-CPU host even with POPCNT and the triangular
/// kernel passes.
fn large_counts() -> Counts {
    let mut counts = Counts::new(20).unwrap();
    for i in 0..40_000u64 {
        counts.record_n(
            BitString::from_u128(u128::from(i.wrapping_mul(2655) % (1 << 20)), 20),
            1 + i % 13,
        );
    }
    counts
}

/// Deadline-exceeded requests are always captured, whatever the slow
/// threshold — they are the traces an operator will come looking for.
#[test]
fn deadline_misses_are_always_captured() {
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        // Enormous threshold: nothing is "slow", so only the
        // deadline-exceeded carve-out can land a trace in the ring.
        slow_trace_ms: 1_000_000_000,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();

    // Pin the lone worker with a long cold reconstruct, then queue a
    // short-deadline request behind it: its budget expires in the
    // queue, so it is shed at dequeue as DeadlineExceeded.
    let blocker_addr = addr.clone();
    let blocker = std::thread::spawn(move || {
        let mut c = ServeClient::connect(blocker_addr).expect("blocker connects");
        c.reconstruct(&large_counts(), &HammerConfig::paper())
            .expect("the undeadlined blocker completes")
    });
    std::thread::sleep(Duration::from_millis(20));

    let mut client = ServeClient::connect(&addr)
        .expect("client connects")
        .with_trace_id(0xDEAD_0001)
        .with_busy_retries(0, Duration::ZERO)
        .with_deadline(Some(Duration::from_millis(5)));
    let result = client.reconstruct(&small_counts(5), &HammerConfig::paper());
    assert!(result.is_err(), "a 5ms budget dies behind a pinned worker");

    let _ = blocker.join().expect("blocker thread");
    let mut probe = ServeClient::connect(&addr).expect("probe connects");
    let entry = await_trace(&mut probe, 0xDEAD_0001);
    assert_eq!(entry.outcome, opcode::DEADLINE_EXCEEDED);

    probe.shutdown().expect("shutdown");
    let _ = server.wait();
}
