//! The chaos suite: the serving tier under injected faults.
//!
//! Network-level faults come from [`hammer_serve::chaos::ChaosProxy`]
//! (delay, drop, truncation, corruption, half-close); compute-level
//! faults from the `fault-points` hooks (panic-on-Nth-compute,
//! slow-compute). The invariants under test:
//!
//! * no fault deadlocks the server or escapes as a panic;
//! * no follower of a coalesced computation is ever left stuck;
//! * completed replies are byte-identical to direct library calls,
//!   chaos or not;
//! * deadlines fire: an expired or too-short budget yields
//!   `DeadlineExceeded`, promptly;
//! * shutdown stays bounded with faults in flight, and requests that
//!   arrive during the drain get an in-band `ShuttingDown`.
//!
//! The in-process fault points are process-wide globals, so every test
//! that arms them (or depends on them being disarmed) serializes on
//! [`TEST_LOCK`].

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hammer_core::{Hammer, HammerConfig};
use hammer_dist::{BitString, Counts, Distribution};
use hammer_serve::chaos::{ChaosProxy, Fault};
use hammer_serve::{fault, serve, ServeClient, ServeConfig, ServerHandle, WireError};

/// Serializes the tests sharing the process-wide fault-point globals.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Locks the suite and starts from a disarmed state, whatever a
/// previously panicked test left behind.
fn exclusive() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::reset();
    guard
}

fn bs(s: &str) -> BitString {
    BitString::parse(s).unwrap()
}

/// A chaos-shaped server: short i/o timeout so slow-loris reaping is
/// observable within a test budget.
fn start(workers: usize, queue_limit: usize) -> ServerHandle {
    serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_limit,
        cache_mb: 16,
        io_timeout: Some(Duration::from_millis(400)),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port")
}

/// A moderately wide histogram; `salt` decorrelates cache keys.
fn chaos_counts(salt: u64) -> Counts {
    let mut counts = Counts::new(6).unwrap();
    let mut state = 0x5EED ^ salt.wrapping_mul(0x9E37_79B9);
    for i in 0..40u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        counts.record_n(BitString::new(state % 64, 6), 1 + (i % 9));
    }
    counts.record_n(bs("111111"), 500 + salt);
    counts
}

fn direct(counts: &Counts) -> Distribution {
    Hammer::with_config(HammerConfig::paper()).reconstruct_counts(counts)
}

/// Every network fault either completes with a byte-identical reply or
/// fails with a typed error — never a hang, never a wrong answer.
#[test]
fn faulty_networks_never_produce_wrong_answers() {
    let _guard = exclusive();
    let server = start(2, 64);
    let expected = direct(&chaos_counts(1));

    let faults = [
        Fault::None,
        Fault::DelayMs(10),
        Fault::CorruptRequestByte(2),  // clobbers the frame magic
        Fault::CorruptRequestByte(40), // clobbers payload bytes
        Fault::DropRequestAfter(8),    // mid-header stall (slow loris)
        Fault::TruncateReplyAfter(10), // client sees a cut-off reply
        Fault::HalfCloseRequestAfter(6),
    ];
    for fault_kind in faults {
        let proxy = ChaosProxy::spawn(server.local_addr(), vec![fault_kind]).expect("proxy spawns");
        let started = Instant::now();
        let mut client = ServeClient::connect(proxy.local_addr().to_string())
            .expect("connect through proxy")
            .with_io_timeout(Some(Duration::from_millis(700)))
            .with_busy_retries(0, Duration::ZERO);
        match client.reconstruct(&chaos_counts(1), &HammerConfig::paper()) {
            Ok(got) => assert_eq!(got, expected, "reply corrupted under {fault_kind:?}"),
            Err(
                WireError::Io(_)
                | WireError::Remote(_)
                | WireError::BadMagic(_)
                | WireError::BadVersion(_)
                | WireError::Truncated
                | WireError::TrailingBytes
                | WireError::Malformed(_)
                | WireError::UnknownOpcode(_)
                | WireError::PayloadTooLarge(_)
                | WireError::Dist(_),
            ) => {}
            Err(other) => panic!("unexpected error class under {fault_kind:?}: {other:?}"),
        }
        // Bounded: the i/o timeout (two attempts' worth plus slack)
        // caps every fault, including the silent mid-frame stall.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fault {fault_kind:?} took {:?}",
            started.elapsed()
        );
        drop(proxy);
    }

    // The server survived the whole gauntlet.
    let mut direct_client =
        ServeClient::connect(server.local_addr().to_string()).expect("connect directly");
    direct_client.ping().expect("server alive after chaos");
    server.shutdown();
    let _ = server.wait();
}

/// A peer that starts a frame and stalls is reaped by the mid-frame
/// i/o timeout; the server keeps serving everyone else.
#[test]
fn slow_loris_is_reaped_not_collected() {
    let _guard = exclusive();
    let server = start(2, 64);

    // Hand-rolled partial header: magic + version and then silence.
    let mut loris = TcpStream::connect(server.local_addr()).expect("connect");
    loris.write_all(b"HAMR\x02\x00").expect("partial header");
    loris.flush().expect("flush");

    // A healthy client is unaffected while the loris dangles.
    let mut client = ServeClient::connect(server.local_addr().to_string()).expect("connect");
    let got = client
        .reconstruct(&chaos_counts(2), &HammerConfig::paper())
        .expect("healthy client computes");
    assert_eq!(got, direct(&chaos_counts(2)));

    // The loris connection is closed within the i/o timeout (plus
    // generous scheduling slack): its next read sees EOF.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut buf = [0u8; 16];
    let start_wait = Instant::now();
    let reaped = loop {
        match std::io::Read::read(&mut loris, &mut buf) {
            Ok(0) => break true, // EOF: reaped
            Ok(_) => {}          // unexpected bytes; keep draining
            Err(_) => break start_wait.elapsed() >= Duration::from_millis(350),
        }
    };
    assert!(reaped, "slow-loris connection was not reaped");

    server.shutdown();
    let _ = server.wait();
}

/// The leader-death regression: a panic mid-compute must surface as an
/// error to the panicking request, never wedge coalesced followers,
/// never be cached, and the followers must self-heal by re-leading.
#[test]
fn leader_panic_frees_followers_and_is_never_cached() {
    let _guard = exclusive();
    let server = start(4, 64);
    let addr = server.local_addr().to_string();
    let counts = chaos_counts(3);
    let expected = direct(&counts);

    fault::arm_panic_on_nth_compute(1);
    let barrier = Arc::new(Barrier::new(4));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let counts = counts.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                barrier.wait();
                client.reconstruct(&counts, &HammerConfig::paper())
            })
        })
        .collect();

    let mut errors = 0;
    for handle in clients {
        // `join` succeeding at all proves no follower was left stuck.
        match handle.join().expect("client thread finishes") {
            Ok(got) => assert_eq!(got, expected, "post-panic recompute must stay exact"),
            Err(WireError::Remote(msg)) => {
                assert!(
                    msg.contains("panic"),
                    "the one failing request reports the panic, got: {msg}"
                );
                errors += 1;
            }
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
    }
    // Exactly the armed panic fails; everyone else re-led and computed.
    assert!(errors <= 1, "one armed panic cannot fail {errors} requests");

    // The panic was never cached: a fresh identical request computes
    // (or cache-hits a *successful* result) and matches exactly.
    let mut client = ServeClient::connect(&addr).expect("connect");
    let again = client
        .reconstruct(&counts, &HammerConfig::paper())
        .expect("panic must not poison the key");
    assert_eq!(again, expected);

    fault::reset();
    server.shutdown();
    let _ = server.wait();
}

/// The measured serving-tier cancellation latency: a short deadline on
/// a (artificially slowed) compute returns `DeadlineExceeded` long
/// before the uncancelled compute would have finished.
#[test]
fn short_deadlines_cut_slow_computes_short() {
    let _guard = exclusive();
    let server = start(2, 64);
    let addr = server.local_addr().to_string();

    // 1.2 s of injected latency per compute, 120 ms of budget.
    fault::set_slow_compute_ms(1200);
    let mut client = ServeClient::connect(&addr)
        .expect("connect")
        .with_deadline(Some(Duration::from_millis(120)));
    let started = Instant::now();
    let got = client.reconstruct(&chaos_counts(4), &HammerConfig::paper());
    let elapsed = started.elapsed();
    assert!(
        matches!(got, Err(WireError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {got:?}"
    );
    // Measured latency: the refusal must arrive in a small multiple of
    // the budget, nowhere near the 1.2 s the compute would take.
    assert!(
        elapsed < Duration::from_millis(800),
        "cancellation took {elapsed:?}"
    );

    // An expired-on-arrival budget is refused without computing.
    let mut instant_client = ServeClient::connect(&addr)
        .expect("connect")
        .with_deadline(Some(Duration::from_millis(1)));
    let got = instant_client.reconstruct(&chaos_counts(5), &HammerConfig::paper());
    assert!(
        matches!(got, Err(WireError::DeadlineExceeded)),
        "expected DeadlineExceeded for expired budget, got {got:?}"
    );

    // Without a deadline the slowed compute still completes exactly.
    fault::set_slow_compute_ms(50);
    let mut patient = ServeClient::connect(&addr).expect("connect");
    let got = patient
        .reconstruct(&chaos_counts(6), &HammerConfig::paper())
        .expect("patient client completes");
    assert_eq!(got, direct(&chaos_counts(6)));

    fault::reset();
    server.shutdown();
    let _ = server.wait();
}

/// Shutdown stays bounded with chaos in flight, and a request arriving
/// during the drain gets an in-band `ShuttingDown`, not a silent close.
#[test]
fn shutdown_is_bounded_and_answers_drain_arrivals_in_band() {
    let _guard = exclusive();
    let server = start(2, 64);
    let addr = server.local_addr().to_string();

    // A slow job in flight (injected latency), plus a dangling
    // slow-loris connection for the drain to ignore.
    fault::set_slow_compute_ms(300);
    let slow_counts = chaos_counts(8);
    let expected = direct(&slow_counts);
    let slow_client = {
        let addr = addr.clone();
        let slow_counts = slow_counts.clone();
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect");
            client.reconstruct(&slow_counts, &HammerConfig::paper())
        })
    };
    let mut loris = TcpStream::connect(server.local_addr()).expect("connect");
    loris.write_all(b"HAMR").expect("partial magic");

    // A bystander connected BEFORE the drain begins…
    let mut bystander = ServeClient::connect(&addr)
        .expect("connect")
        .with_busy_retries(0, Duration::ZERO);
    bystander.ping().expect("bystander alive");

    std::thread::sleep(Duration::from_millis(60)); // let the slow job start
    server.shutdown();

    // …sends a request mid-drain: the reply is an in-band refusal.
    match bystander.reconstruct(&chaos_counts(9), &HammerConfig::paper()) {
        Err(WireError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown during drain, got {other:?}"),
    }

    // The drain itself is bounded: `wait` returns within a watchdog
    // budget despite the slow job and the dangling loris.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.wait());
    });
    let snap = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must complete within the watchdog budget");
    assert!(snap.counter("serve.requests").unwrap_or(0) >= 1);

    // The in-flight slow job was drained, not dropped — and stayed
    // byte-identical.
    match slow_client.join().expect("slow client thread finishes") {
        Ok(got) => assert_eq!(got, expected, "drained reply must stay exact"),
        // The job may also have been refused if shutdown won the race
        // to the queue; both are sound, a hang or a wrong answer is not.
        Err(WireError::ShuttingDown | WireError::Busy | WireError::Io(_)) => {}
        Err(other) => panic!("unexpected drain outcome: {other:?}"),
    }
    fault::reset();
}

/// Deterministic replies through an honest-but-slow network: a delayed
/// proxy changes latency only, and coalesced concurrent requests
/// through chaos still produce one computation's worth of identical
/// bytes.
#[test]
fn delayed_networks_change_latency_never_bytes() {
    let _guard = exclusive();
    let server = start(4, 64);
    let proxy = ChaosProxy::spawn(server.local_addr(), vec![Fault::DelayMs(5)]).expect("proxy");
    let addr = proxy.local_addr().to_string();
    let counts = chaos_counts(10);
    let expected = direct(&counts);

    let barrier = Arc::new(Barrier::new(3));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let counts = counts.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect via proxy");
                barrier.wait();
                client
                    .reconstruct(&counts, &HammerConfig::paper())
                    .expect("delayed but sound")
            })
        })
        .collect();
    for handle in clients {
        assert_eq!(handle.join().expect("finishes"), expected);
    }
    assert_eq!(
        server.obs_snapshot().counter("serve.cache.misses"),
        Some(1),
        "identical concurrent requests coalesce to one computation"
    );

    drop(proxy);
    server.shutdown();
    let _ = server.wait();
}

/// A coalesced follower takes no compute slot and no queue place. With
/// one slot and one queue place, a follower of the request computing
/// leaves the queue place free, so a different request waits there and
/// is computed instead of refused `Busy`.
#[test]
fn coalesced_followers_take_no_slot_and_no_queue_place() {
    let _guard = exclusive();
    let server = start(1, 1);
    let addr = server.local_addr().to_string();
    fault::set_slow_compute_ms(300);
    let send = |counts: &Counts| {
        let addr = addr.clone();
        let counts = counts.clone();
        std::thread::spawn(move || {
            ServeClient::connect(addr)
                .expect("connect")
                .with_busy_retries(0, Duration::ZERO)
                .reconstruct(&counts, &HammerConfig::paper())
        })
    };
    // Polls the server's metrics until `ready` holds.
    let wait_for = |what: &str, ready: &dyn Fn(&hammer_obs::MetricsSnapshot) -> bool| {
        let started = Instant::now();
        while !ready(&server.obs_snapshot()) {
            assert!(
                started.elapsed() < Duration::from_millis(250),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let (a, b) = (chaos_counts(11), chaos_counts(12));

    let first = send(&a);
    wait_for("A to compute", &|s| {
        s.counter("serve.cache.misses") == Some(1)
    });
    let again = send(&a);
    wait_for("A' to reach the server", &|s| {
        s.counter("serve.coalesced") == Some(1) || s.gauge("serve.queue.depth") == Some(1)
    });
    let other = send(&b);

    match other.join().expect("B's client finishes") {
        Ok(got) => assert_eq!(got, direct(&b)),
        Err(e) => panic!("B must wait in the free queue place, got {e:?}"),
    }
    let first = first
        .join()
        .expect("A's client finishes")
        .expect("A computes");
    let again = again
        .join()
        .expect("A''s client finishes")
        .expect("A' follows");
    assert_eq!(first, direct(&a));
    assert_eq!(again, first, "the follower receives the leader's bytes");
    assert_eq!(
        server.obs_snapshot().counter("serve.cache.misses"),
        Some(2),
        "A and B computed once each"
    );

    fault::reset();
    server.shutdown();
    let _ = server.wait();
}
