//! End-to-end serving tests: a real TCP server in-process, concurrent
//! clients, byte-identical replies versus direct library calls, cache
//! and coalescing behavior, backpressure, and graceful shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hammer_core::{AnnTuning, Hammer, HammerConfig, KernelTuning, NeighborhoodLimit};
use hammer_dist::{metrics, BitString, Counts, Distribution};
use hammer_obs::MetricsSnapshot;
use hammer_serve::{serve, DeviceSpec, Reply, SampleJob, ServeClient, ServeConfig, WireError};
use hammer_sim::{AutoEngine, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bs(s: &str) -> BitString {
    BitString::parse(s).unwrap()
}

/// A server on an ephemeral port with the given cache budget.
fn start(cache_mb: usize, workers: usize, queue_limit: usize) -> hammer_serve::ServerHandle {
    serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_limit,
        cache_mb,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port")
}

/// The §4.5 halo histogram: correct answer out-gunned by an isolated
/// dominant error, revealed by reconstruction. `salt` perturbs one
/// count so distinct salts produce distinct cache keys.
fn halo_counts(salt: u64) -> Counts {
    let mut counts = Counts::new(5).unwrap();
    counts.record_n(bs("11111"), 150);
    counts.record_n(bs("00100"), 250 + salt);
    for s in ["11110", "11101", "11011", "10111", "01111"] {
        counts.record_n(bs(s), 80);
    }
    for s in ["11100", "11010", "00111", "01011"] {
        counts.record_n(bs(s), 50);
    }
    counts
}

/// A serving counter from a metric snapshot (0 if never registered).
fn count(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// The reply bytes a distribution travels as — the byte-identical
/// comparison the acceptance criteria ask for.
fn wire_bytes(d: &Distribution) -> Vec<u8> {
    Reply::Distribution(d.clone()).encode()
}

fn ghz_job(n: usize, trials: u64, seed: u64) -> SampleJob {
    let mut circuit = Circuit::new(n);
    circuit.h(0);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    SampleJob {
        circuit,
        device: DeviceSpec::IbmParis(n),
        trials,
        seed,
        config: HammerConfig::paper(),
    }
}

/// What the server is expected to compute for a job, via direct library
/// calls (same engine dispatch, same seed discipline, same Hammer).
fn direct_sample_and_reconstruct(job: &SampleJob) -> Distribution {
    let device = job.device.to_device().expect("valid preset");
    let mut rng = StdRng::seed_from_u64(job.seed);
    let counts = AutoEngine::new(&device)
        .sample(&job.circuit, job.trials, &mut rng)
        .expect("valid job");
    Hammer::with_config(job.config).reconstruct_counts(&counts)
}

#[test]
fn concurrent_clients_get_byte_identical_replies_and_cache_hits() {
    let server = start(64, 4, 256);
    let addr = server.local_addr().to_string();

    // Direct library results to compare against.
    let expected_reconstruct =
        Hammer::with_config(HammerConfig::paper()).reconstruct_counts(&halo_counts(0));
    let job = ghz_job(6, 2000, 0xAB);
    let expected_job = direct_sample_and_reconstruct(&job);

    // ≥ 2 concurrent clients, each driving both compute opcodes twice
    // (the second pass hits the cache).
    let barrier = Arc::new(Barrier::new(3));
    let workers: Vec<_> = (0..3u64)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let expected_reconstruct = expected_reconstruct.clone();
            let expected_job = expected_job.clone();
            let job = job.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                client.ping().expect("ping");
                barrier.wait();
                for _ in 0..2 {
                    let got = client
                        .reconstruct(&halo_counts(0), &HammerConfig::paper())
                        .expect("reconstruct");
                    assert_eq!(wire_bytes(&got), wire_bytes(&expected_reconstruct));
                    assert_eq!(got.most_probable().unwrap().0, bs("11111"));
                    // The figures of merit are scored on the served
                    // reply: reconstruction lifts PST over the input's,
                    // and the correct answer, out-gunned in the input
                    // (IST < 1), now beats every error (IST > 1).
                    let correct = [bs("11111")];
                    let noisy = halo_counts(0).to_distribution();
                    assert!(metrics::pst(&got, &correct) > metrics::pst(&noisy, &correct));
                    assert!(metrics::ist(&got, &correct) > 1.0);
                    assert!(metrics::ist(&noisy, &correct) < 1.0);
                    assert!(metrics::ehd(&got, &correct) < metrics::uniform_ehd(5));

                    let got = client.sample_and_reconstruct(&job).expect("sample job");
                    assert_eq!(wire_bytes(&got), wire_bytes(&expected_job));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let snap = server.obs_snapshot();
    // 3 clients × 2 rounds × 2 compute opcodes.
    assert_eq!(count(&snap, "serve.requests"), 12);
    // Two distinct cacheable keys; every later identical request hit
    // the cache or coalesced onto the in-flight leader.
    let hits = count(&snap, "serve.cache.hits");
    assert_eq!(count(&snap, "serve.cache.misses"), 2, "{snap:?}");
    assert!(hits > 0, "{snap:?}");
    assert_eq!(hits + count(&snap, "serve.coalesced"), 10, "{snap:?}");
    assert_eq!(count(&snap, "serve.busy_rejections"), 0);

    // Graceful shutdown: acknowledged, then the port actually closes.
    let mut client = ServeClient::connect(&addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown ack");
    let final_snap = server.wait();
    assert_eq!(count(&final_snap, "serve.requests"), 12);
    assert!(
        std::net::TcpStream::connect(&addr).is_err(),
        "listener must be closed after graceful shutdown"
    );
}

#[test]
fn k_concurrent_identical_requests_compute_once() {
    let server = start(64, 8, 256);
    let addr = server.local_addr().to_string();
    const K: usize = 8;

    // A job heavy enough that the followers arrive while the leader is
    // still computing (coalescing), but the assertion only relies on
    // the miss counter: K identical requests, ONE underlying
    // computation, regardless of timing.
    let job = ghz_job(10, 60_000, 0x5EED);
    let barrier = Arc::new(Barrier::new(K));
    let reply_fingerprints: Vec<_> = (0..K)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let job = job.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                barrier.wait();
                let d = client.sample_and_reconstruct(&job).expect("job");
                wire_bytes(&d)
            })
        })
        .collect();
    let replies: Vec<Vec<u8>> = reply_fingerprints
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // Byte-identical replies across every client.
    for r in &replies[1..] {
        assert_eq!(r, &replies[0]);
    }
    let snap = server.obs_snapshot();
    assert_eq!(count(&snap, "serve.requests"), K as u64);
    assert_eq!(
        count(&snap, "serve.cache.misses"),
        1,
        "K identical requests must compute once: {snap:?}"
    );
    assert_eq!(
        count(&snap, "serve.cache.hits") + count(&snap, "serve.coalesced"),
        (K - 1) as u64
    );

    server.shutdown();
    let _ = server.wait();
}

#[test]
fn tiny_cache_evicts_but_stays_correct() {
    // cache_mb = 0 → per-shard budget 0: each shard keeps at most the
    // entry just inserted, so distinct requests force evictions.
    let server = start(0, 2, 64);
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");

    let mut expected = Vec::new();
    for salt in 0..12u64 {
        let counts = halo_counts(salt);
        let direct = Hammer::with_config(HammerConfig::paper()).reconstruct_counts(&counts);
        let got = client
            .reconstruct(&counts, &HammerConfig::paper())
            .expect("reconstruct");
        assert_eq!(wire_bytes(&got), wire_bytes(&direct));
        expected.push((counts, direct));
    }
    // Re-request everything: evicted entries recompute, and recompute
    // to the same bytes.
    for (counts, direct) in &expected {
        let got = client
            .reconstruct(counts, &HammerConfig::paper())
            .expect("reconstruct again");
        assert_eq!(wire_bytes(&got), wire_bytes(direct));
    }
    let snap = server.obs_snapshot();
    assert!(
        count(&snap, "serve.cache.evictions") > 0,
        "tiny cache must evict: {snap:?}"
    );
    let bytes = snap.gauge("serve.cache.bytes").expect("cache gauge");
    assert!(bytes <= 16 * 1024, "budget enforced: {bytes}");

    server.shutdown();
    let _ = server.wait();
}

#[test]
fn wide_registers_round_trip_through_the_service() {
    let server = start(16, 2, 64);
    let mut client = ServeClient::connect(server.local_addr().to_string()).expect("connect");

    // A 100-bit histogram: halo around the all-ones answer straddling
    // the limb boundary.
    let n = 100;
    let correct = BitString::ones(n);
    let mut counts = Counts::new(n).unwrap();
    counts.record_n(correct, 150);
    counts.record_n(BitString::zeros(n).flip_bit(70).flip_bit(3), 250);
    for q in [0usize, 31, 63, 64, 90, 99] {
        counts.record_n(correct.flip_bit(q), 80);
    }
    let direct = Hammer::with_config(HammerConfig::paper()).reconstruct_counts(&counts);
    let got = client
        .reconstruct(&counts, &HammerConfig::paper())
        .expect("wide reconstruct");
    assert_eq!(wire_bytes(&got), wire_bytes(&direct));
    assert_eq!(got.most_probable().unwrap().0, correct);

    let noisy = counts.to_distribution();
    assert!(metrics::pst(&got, &[correct]) > metrics::pst(&noisy, &[correct]));
    assert!(metrics::ehd(&got, &[correct]) > 0.0);

    server.shutdown();
    let _ = server.wait();
}

/// About 33K distinct 64-bit outcomes: a halo of 1–3-flip errors
/// around one key, plus a quarter of uniform background.
fn large_halo_counts() -> Counts {
    let mut rng = StdRng::seed_from_u64(33);
    let key: u64 = rng.gen();
    let mut counts = Counts::new(64).unwrap();
    counts.record_n(BitString::new(key, 64), 5_000);
    while counts.len() < 33_000 {
        let outcome = if rng.gen_bool(0.25) {
            rng.gen()
        } else {
            let mut member = key;
            for _ in 0..rng.gen_range(1..=3) {
                member ^= 1u64 << rng.gen_range(0..64);
            }
            member
        };
        counts.record(BitString::new(outcome, 64));
    }
    counts
}

/// A served `Reconstruct` is the exact reconstruction. This request is
/// local (`Fixed(16)` at 64 bits) and above the library's default ANN
/// crossover, so `Hammer` with the wire config's default tuning would
/// answer it approximately.
#[test]
fn large_local_reconstructs_are_answered_exactly() {
    let counts = large_halo_counts();
    let config = HammerConfig {
        neighborhood: NeighborhoodLimit::Fixed(16),
        ..HammerConfig::paper()
    };
    let exact = Hammer::with_config(HammerConfig {
        kernel: KernelTuning {
            ann: AnnTuning {
                enabled: false,
                ..AnnTuning::default()
            },
            ..KernelTuning::default()
        },
        ..config
    })
    .reconstruct_counts(&counts);

    let server = start(64, 2, 8);
    let mut client = ServeClient::connect(server.local_addr().to_string()).expect("connect");
    let served = client.reconstruct(&counts, &config).expect("reconstruct");
    // 33K outcomes: compare the bytes, but do not print them.
    assert!(
        wire_bytes(&served) == wire_bytes(&exact),
        "served reply differs from the exact reconstruction"
    );

    server.shutdown();
    let _ = server.wait();
}

/// A reconstruction large enough to hold the single compute slot for a
/// few hundred milliseconds: 40K distinct outcomes at 20 bits.
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

/// Cache hits are answered on the connection thread, so a warm input
/// never queues behind cold work: with the lone compute slot held by a
/// long reconstruct, a 5 ms-deadline request for a warm input still gets the
/// cached reply instead of `DeadlineExceeded`.
#[test]
fn warm_hits_are_answered_while_the_lone_worker_is_pinned() {
    let server = start(64, 1, 256);
    let addr = server.local_addr().to_string();
    let config = HammerConfig::paper();
    let expected = Hammer::with_config(config).reconstruct_counts(&halo_counts(7));
    let mut client = ServeClient::connect(&addr)
        .expect("connect")
        .with_busy_retries(0, Duration::ZERO);
    let warmed = client
        .reconstruct(&halo_counts(7), &config)
        .expect("warm-up");
    assert_eq!(wire_bytes(&warmed), wire_bytes(&expected));

    let blocker_addr = addr.clone();
    let blocker = std::thread::spawn(move || {
        let mut c = ServeClient::connect(blocker_addr).expect("blocker connects");
        c.reconstruct(&large_counts(), &HammerConfig::paper())
            .expect("the undeadlined blocker completes")
    });
    // `serve.requests` counts a miss once it is granted a slot, so at
    // 2 (the warm-up and the blocker) the lone slot is held.
    let pinned_by = Instant::now() + Duration::from_secs(30);
    while count(&server.obs_snapshot(), "serve.requests") != 2 {
        assert!(
            Instant::now() < pinned_by,
            "the blocker was never granted the compute slot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut client = client.with_deadline(Some(Duration::from_millis(5)));
    let hot = client
        .reconstruct(&halo_counts(7), &config)
        .expect("a warm input is answered from the cache");
    assert_eq!(wire_bytes(&hot), wire_bytes(&expected));

    let _ = blocker.join().expect("blocker thread");
    let snap = server.obs_snapshot();
    assert_eq!(count(&snap, "serve.requests"), 3);
    assert_eq!(count(&snap, "serve.cache.hits"), 1, "{snap:?}");
    assert_eq!(count(&snap, "serve.cache.misses"), 2, "{snap:?}");
    assert_eq!(count(&snap, "serve.deadline_sheds"), 0, "{snap:?}");

    server.shutdown();
    let _ = server.wait();
}

#[test]
fn zero_queue_limit_replies_busy() {
    let server = start(16, 1, 0);
    // Retries disabled: the first refusal must surface immediately.
    let mut client = ServeClient::connect(server.local_addr().to_string())
        .expect("connect")
        .with_busy_retries(0, Duration::ZERO);
    // Cheap opcodes bypass the queue and still work…
    client.ping().expect("ping bypasses the queue");
    // …but every compute submission is refused up front.
    match client.reconstruct(&halo_counts(0), &HammerConfig::paper()) {
        Err(WireError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    let snap = server.obs_snapshot();
    assert_eq!(count(&snap, "serve.busy_rejections"), 1);
    assert_eq!(count(&snap, "serve.requests"), 0);
    server.shutdown();
    let _ = server.wait();
}

/// The bounded `Busy` retry: against a server that refuses every
/// compute submission (queue limit 0), a client configured for `r`
/// retries must be seen asking exactly `1 + r` times before it finally
/// surfaces [`WireError::Busy`].
#[test]
fn busy_replies_are_retried_a_bounded_number_of_times() {
    let server = start(16, 1, 0);
    let mut client = ServeClient::connect(server.local_addr().to_string())
        .expect("connect")
        .with_busy_retries(2, Duration::from_millis(1));
    match client.reconstruct(&halo_counts(0), &HammerConfig::paper()) {
        Err(WireError::Busy) => {}
        other => panic!("expected Busy after exhausted retries, got {other:?}"),
    }
    let snap = server.obs_snapshot();
    assert_eq!(
        count(&snap, "serve.busy_rejections"),
        3,
        "1 initial attempt + 2 retries must reach the server"
    );
    assert_eq!(count(&snap, "serve.requests"), 0);
    // The connection survives the refusals.
    client.ping().expect("still alive");
    server.shutdown();
    let _ = server.wait();
}

#[test]
fn server_side_failures_are_error_replies_not_panics() {
    let server = start(16, 2, 64);
    let mut client = ServeClient::connect(server.local_addr().to_string()).expect("connect");

    // Width-bound violation in a device spec.
    let job = SampleJob {
        device: DeviceSpec::IbmParis(40),
        ..ghz_job(6, 100, 1)
    };
    match client.sample_and_reconstruct(&job) {
        Err(WireError::Remote(msg)) => assert!(msg.contains("27"), "{msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    // Zero trials.
    let job = ghz_job(6, 0, 1);
    assert!(matches!(
        client.sample_and_reconstruct(&job),
        Err(WireError::Remote(_))
    ));
    // An empty histogram has nothing to reconstruct.
    assert!(matches!(
        client.reconstruct(&Counts::new(5).unwrap(), &HammerConfig::paper()),
        Err(WireError::Remote(_))
    ));
    // The connection (and server) survive all of it.
    client.ping().expect("still alive");

    // A failed job must not be cached: the counters show no hit when
    // the same bad job is retried.
    let hits = || count(&server.obs_snapshot(), "serve.cache.hits");
    let before = hits();
    let job = SampleJob {
        device: DeviceSpec::IbmParis(40),
        ..ghz_job(6, 100, 1)
    };
    let _ = client.sample_and_reconstruct(&job);
    assert_eq!(hits(), before, "failures are not cached");

    server.shutdown();
    let _ = server.wait();
}

/// The reconnect story: a client built before a server restart keeps
/// working against the new instance (same address).
#[test]
fn client_reconnects_after_server_restart() {
    let first = start(16, 2, 64);
    let addr = first.local_addr();
    let mut client = ServeClient::connect(addr.to_string()).expect("connect");
    client.ping().expect("first server alive");

    first.shutdown();
    let _ = first.wait();

    // Rebind on the SAME port (released by the graceful shutdown).
    let second = serve(&ServeConfig {
        addr: addr.to_string(),
        workers: 2,
        queue_limit: 64,
        cache_mb: 16,
        ..ServeConfig::default()
    })
    .expect("rebind the released port");
    // The old connection is dead; the client reconnects and retries.
    client.ping().expect("reconnected to the second server");
    let d = client
        .reconstruct(&halo_counts(3), &HammerConfig::paper())
        .expect("compute on the second server");
    assert!((d.total_mass() - 1.0).abs() < 1e-9);

    second.shutdown();
    let _ = second.wait();
}

/// Requests queued at shutdown time are drained, not dropped: their
/// replies arrive before `wait` returns.
#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let server = start(16, 1, 64);
    let addr = server.local_addr().to_string();

    // One slow job in flight from a background client…
    let job = ghz_job(10, 60_000, 7);
    let expected = direct_sample_and_reconstruct(&job);
    let done = Arc::new(AtomicU64::new(0));
    let worker = {
        let addr = addr.clone();
        let job = job.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect");
            let d = client.sample_and_reconstruct(&job).expect("drained reply");
            done.store(1, Ordering::SeqCst);
            d
        })
    };
    // …while the main thread requests shutdown "concurrently".
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut client = ServeClient::connect(&addr).expect("connect");
    client.shutdown().expect("ack");
    let _ = server.wait();
    let got = worker.join().expect("worker");
    assert_eq!(done.load(Ordering::SeqCst), 1, "reply arrived");
    assert_eq!(wire_bytes(&got), wire_bytes(&expected));
}

/// Reads one raw reply frame: `(request id, opcode, payload)`.
fn read_reply(stream: &mut std::net::TcpStream) -> (u64, u8, Vec<u8>) {
    let frame = hammer_serve::protocol::read_frame(stream).expect("reply frame");
    (frame.request_id, frame.opcode, frame.payload)
}

/// Only protocol v3 is spoken. A v2 peer gets an id-0 `Error` naming
/// its version and is disconnected, while a v3 client on another
/// connection keeps being served; the retired figures-of-merit and
/// `Stats` opcodes are ordinary unknown opcodes on a connection that
/// stays usable.
#[test]
fn foreign_versions_and_retired_opcodes_get_named_errors() {
    use std::io::{Read, Write};

    use hammer_serve::protocol::{opcode, write_frame};

    let server = start(16, 2, 64);
    let mut v3 = ServeClient::connect(server.local_addr().to_string()).expect("connect");
    v3.ping().expect("v3 client served");

    // A hand-written v2 Ping: 23-byte header, no trace id.
    let mut old = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    old.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut v2_frame = b"HAMR".to_vec();
    v2_frame.extend_from_slice(&2u16.to_le_bytes());
    v2_frame.push(opcode::PING);
    v2_frame.extend_from_slice(&77u64.to_le_bytes());
    v2_frame.extend_from_slice(&0u32.to_le_bytes()); // deadline
    v2_frame.extend_from_slice(&0u32.to_le_bytes()); // payload length
    old.write_all(&v2_frame).expect("v2 frame written");
    let (id, op, payload) = read_reply(&mut old);
    assert_eq!(id, 0, "framing reports carry request id 0");
    match Reply::decode(op, &payload).expect("error reply decodes") {
        Reply::Error(msg) => assert_eq!(msg, "unsupported protocol version 2 (want 3)"),
        other => panic!("expected an Error reply, got {other:?}"),
    }
    let mut rest = Vec::new();
    let closed = old.read_to_end(&mut rest);
    assert!(
        matches!(closed, Ok(0)) || closed.is_err(),
        "the v2 connection must be closed, read {closed:?} {rest:?}"
    );

    // The v3 client is unaffected.
    v3.ping().expect("v3 client still served");
    let d = v3
        .reconstruct(&halo_counts(0), &HammerConfig::paper())
        .expect("v3 compute");
    assert!((d.total_mass() - 1.0).abs() < 1e-9);

    // Opcodes 0x03 (the old `Metrics`) and 0x05 (the old `Stats`) are
    // unknown; the connection survives both.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    for retired in [0x03u8, 0x05] {
        write_frame(&mut raw, u64::from(retired), retired, 0, 0, &[]).expect("frame written");
        let (id, op, payload) = read_reply(&mut raw);
        assert_eq!(id, u64::from(retired));
        assert_eq!(
            Reply::decode(op, &payload).expect("error reply decodes"),
            Reply::Error(format!("unknown opcode 0x{retired:02x}"))
        );
    }
    write_frame(&mut raw, 6, opcode::PING, 0, 0, &[]).expect("frame written");
    assert_eq!(read_reply(&mut raw).1, opcode::PONG);

    server.shutdown();
    let _ = server.wait();
}

/// Each connection answers its frames one at a time, in order: a cold
/// reconstruct pipelined ahead of a `Ping` on one socket is answered
/// first, even though the `Ping` alone would be answered at once.
#[test]
fn pipelined_frames_are_answered_in_request_order() {
    use hammer_serve::protocol::{opcode, write_frame};
    use hammer_serve::Request;

    let server = start(64, 1, 256);
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let cold = Request::Reconstruct {
        config: HammerConfig::paper(),
        counts: large_counts(),
    };
    write_frame(&mut raw, 1, cold.opcode(), 0, 0, &cold.encode()).expect("frame written");
    write_frame(&mut raw, 2, opcode::PING, 0, 0, &[]).expect("frame written");
    let (id, op, _) = read_reply(&mut raw);
    assert_eq!((id, op), (1, opcode::DISTRIBUTION));
    let (id, op, _) = read_reply(&mut raw);
    assert_eq!((id, op), (2, opcode::PONG));

    server.shutdown();
    let _ = server.wait();
}

/// A repeated `Reconstruct` is a cache hit, and a hit is the cached
/// reply bytes written back undecoded: its payload equals the library
/// call's encoded distribution, and its span tree has no `decode`.
#[test]
fn a_repeated_reconstruct_is_a_hit_written_from_the_cached_bytes() {
    use hammer_serve::protocol::{opcode, write_frame};
    use hammer_serve::Request;

    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        slow_trace_ms: 0,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let counts = halo_counts(31);
    let config = HammerConfig::paper();
    let request = Request::Reconstruct {
        config,
        counts: counts.clone(),
    };
    let expected =
        Reply::Distribution(Hammer::with_config(config).reconstruct_counts(&counts)).encode();
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    for (id, trace_id) in [(1, 0xC01D), (2, 0x0407)] {
        write_frame(
            &mut raw,
            id,
            request.opcode(),
            0,
            trace_id,
            &request.encode(),
        )
        .expect("frame written");
        let (got_id, op, payload) = read_reply(&mut raw);
        assert_eq!((got_id, op), (id, opcode::DISTRIBUTION));
        assert_eq!(payload, expected, "request {id}: reply bytes");
    }

    let mut client = ServeClient::connect(server.local_addr().to_string()).expect("connect");
    let snap = client.metrics_snapshot().expect("snapshot");
    assert_eq!(count(&snap, "serve.cache.misses"), 1);
    assert_eq!(count(&snap, "serve.cache.hits"), 1);

    // The connection thread finalizes a trace after writing its reply,
    // so the dump may trail the reply by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut dumped = Vec::new();
    while dumped.len() < 2 && Instant::now() < deadline {
        dumped.extend(client.trace_dump().expect("trace dump"));
        std::thread::sleep(Duration::from_millis(5));
    }
    let stages = |trace_id: u64| -> Vec<String> {
        let entry = dumped
            .iter()
            .find(|e| e.trace_id == trace_id)
            .unwrap_or_else(|| panic!("trace {trace_id:#x} missing from {dumped:?}"));
        entry.spans.iter().map(|s| s.stage.clone()).collect()
    };
    let miss = stages(0xC01D);
    assert!(
        miss.iter().any(|s| s == "decode"),
        "the miss decodes: {miss:?}"
    );
    assert_eq!(stages(0x0407), ["cache_probe", "encode", "write"]);

    server.shutdown();
    let _ = server.wait();
}

/// A malformed `Reconstruct` payload is an `Error` reply, the same one on
/// every connection that sends it, and it is never cached.
#[test]
fn malformed_reconstruct_payloads_get_the_same_error_and_are_not_cached() {
    use hammer_serve::protocol::{opcode, write_frame};
    use hammer_serve::Request;

    let server = start(16, 2, 64);
    let request = Request::Reconstruct {
        config: HammerConfig::paper(),
        counts: halo_counts(0),
    };
    let mut bad = request.encode();
    bad.pop();
    let want = Request::decode(opcode::RECONSTRUCT, &bad)
        .expect_err("a truncated payload does not decode")
        .to_string();
    for id in 1..=2 {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut raw, id, opcode::RECONSTRUCT, 0, 0, &bad).expect("frame written");
        let (got_id, op, payload) = read_reply(&mut raw);
        assert_eq!(got_id, id);
        assert_eq!(
            Reply::decode(op, &payload).expect("reply decodes"),
            Reply::Error(want.clone()),
            "connection {id}"
        );
    }
    let snap = server.obs_snapshot();
    assert_eq!(count(&snap, "serve.cache.hits"), 0);
    assert_eq!(count(&snap, "serve.cache.misses"), 0);
    assert_eq!(snap.gauge("serve.cache.entries"), Some(0));

    server.shutdown();
    let _ = server.wait();
}
