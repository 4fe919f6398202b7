//! Wire-format safety net.
//!
//! * A hostile-bytes corpus: arbitrary bytes fed to the frame reader
//!   and to both payload decoders under every opcode, plus every
//!   truncation and every single-bit flip of a valid frame of each
//!   message kind. Any result is acceptable except a panic.
//! * Golden bytes: the exact 31-byte v3 header of a request as
//!   `ServeClient` writes it and of replies as the server writes them,
//!   captured off real sockets so the test pins the bytes on the wire,
//!   not a writer's signature.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use hammer_core::{FilterRule, Hammer, HammerConfig, NeighborhoodLimit, WeightScheme};
use hammer_dist::{BitString, Counts, Distribution};
use hammer_serve::codec::{TraceDumpEntry, TraceSpan};
use hammer_serve::protocol::{self, opcode};
use hammer_serve::{serve, DeviceSpec, Reply, Request, SampleJob, ServeClient, ServeConfig};
use hammer_sim::Circuit;
use proptest::prelude::*;

/// A v3 frame assembled by hand from the documented layout, independent
/// of the crate's own writer.
fn v3_frame(request_id: u64, op: u8, trace_id: u64, deadline_ms: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(31 + payload.len());
    frame.extend_from_slice(b"HAMR");
    frame.extend_from_slice(&3u16.to_le_bytes());
    frame.push(op);
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&trace_id.to_le_bytes());
    frame.extend_from_slice(&deadline_ms.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads `bytes` as a frame and, if that succeeds, decodes its payload
/// as both a request and a reply. Only a panic can fail this.
fn feed(bytes: &[u8]) {
    let mut r = bytes;
    if let Ok(frame) = protocol::read_frame(&mut r) {
        let _ = Request::decode(frame.opcode, &frame.payload);
        let _ = Reply::decode(frame.opcode, &frame.payload);
    }
}

fn bs(s: &str) -> BitString {
    BitString::parse(s).unwrap()
}

/// One valid v3 frame of every message kind the corpus mutates.
fn valid_frames() -> Vec<(&'static str, Vec<u8>)> {
    let mut narrow = Counts::new(5).unwrap();
    narrow.record_n(bs("11111"), 150);
    narrow.record_n(bs("11110"), 80);
    narrow.record_n(bs("00100"), 250);
    let mut wide = Counts::new(100).unwrap();
    wide.record_n(BitString::ones(100), 9);
    wide.record_n(BitString::zeros(100).flip_bit(99).flip_bit(3), 4);
    let mut circuit = Circuit::new(3);
    circuit.h(0).cx(0, 1).rz(2, 0.5).zz(1, 2, 0.25);
    let dist = Distribution::from_probs(3, [(bs("111"), 0.75), (bs("010"), 0.25)]).unwrap();
    let registry = hammer_obs::Registry::new();
    registry.counter("serve.requests").add(3);
    registry.gauge("serve.cache.bytes").set(-1);
    registry.histogram("serve.request_ns").record(1_500);
    let snapshot = registry.snapshot();

    let requests = [
        (
            "reconstruct-narrow",
            Request::Reconstruct {
                config: HammerConfig::paper(),
                counts: narrow,
            },
        ),
        (
            "reconstruct-wide",
            Request::Reconstruct {
                config: HammerConfig {
                    neighborhood: NeighborhoodLimit::Fixed(7),
                    weights: WeightScheme::Uniform,
                    filter: FilterRule::None,
                    ..HammerConfig::default()
                },
                counts: wide,
            },
        ),
        (
            "sample-and-reconstruct",
            Request::SampleAndReconstruct(SampleJob {
                circuit,
                device: DeviceSpec::IbmParis(3),
                trials: 1024,
                seed: 7,
                config: HammerConfig::paper(),
            }),
        ),
    ];
    let replies = [
        ("distribution", Reply::Distribution(dist)),
        (
            "trace-dump",
            Reply::TraceDump(vec![TraceDumpEntry {
                trace_id: 0xABCD,
                opcode: opcode::RECONSTRUCT,
                outcome: opcode::DISTRIBUTION,
                total_ns: 9_000,
                spans: vec![TraceSpan {
                    stage: "compute".into(),
                    start_ns: 100,
                    dur_ns: 8_000,
                }],
            }]),
        ),
        ("metrics-snapshot", Reply::MetricsSnapshot(snapshot)),
        (
            "error",
            Reply::Error("device width 300 outside 1..=128".into()),
        ),
    ];
    let mut frames: Vec<(&'static str, Vec<u8>)> = requests
        .iter()
        .map(|(name, req)| (*name, v3_frame(1, req.opcode(), 0xFEED, 250, &req.encode())))
        .collect();
    frames.extend(
        replies
            .iter()
            .map(|(name, rep)| (*name, v3_frame(2, rep.opcode(), 0xFEED, 0, &rep.encode()))),
    );
    frames
}

#[test]
fn valid_frames_decode_cleanly() {
    // The corpus seeds really are valid: otherwise the mutations below
    // would only ever exercise the first error path.
    for (name, frame) in valid_frames() {
        let mut r = frame.as_slice();
        let frame = protocol::read_frame(&mut r).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(r.is_empty(), "{name}: frame not consumed exactly");
        let ok = Request::decode(frame.opcode, &frame.payload).is_ok()
            || Reply::decode(frame.opcode, &frame.payload).is_ok();
        assert!(ok, "{name}: payload does not decode");
    }
}

#[test]
fn every_truncation_and_bit_flip_is_an_error_or_a_value_never_a_panic() {
    for (_, frame) in valid_frames() {
        for cut in 0..frame.len() {
            feed(&frame[..cut]);
        }
        let mut flipped = frame.clone();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                feed(&flipped);
                flipped[byte] ^= 1 << bit;
            }
        }
    }
}

/// Arbitrary bytes, half of them behind a valid magic + version prefix
/// so the length and payload paths see hostile input too.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(0u8..=255, 0..96),
        proptest::collection::vec(0u8..=255, 0..96).prop_map(|tail| {
            let mut bytes = b"HAMR".to_vec();
            bytes.extend_from_slice(&3u16.to_le_bytes());
            bytes.extend(tail);
            bytes
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn hostile_frames_never_panic_the_reader(bytes in hostile_bytes()) {
        feed(&bytes);
    }

    #[test]
    fn hostile_payloads_never_panic_a_decoder_under_any_opcode(
        payload in proptest::collection::vec(0u8..=255, 0..64)
    ) {
        for op in 0..=255u8 {
            let _ = Request::decode(op, &payload);
            let _ = Reply::decode(op, &payload);
        }
    }
}

/// The 31-byte header a `Reconstruct` goes out under from
/// `ServeClient`, read off a fake listener.
#[test]
fn golden_v3_request_header() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut counts = Counts::new(5).unwrap();
    counts.record_n(bs("11111"), 3);
    counts.record_n(bs("00100"), 2);
    let request = Request::Reconstruct {
        config: HammerConfig::paper(),
        counts: counts.clone(),
    };
    let payload_len = request.encode().len();
    assert_eq!(payload_len, 41, "codec layout moved");

    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut header = [0u8; 31];
        conn.read_exact(&mut header).unwrap();
        let mut payload = vec![0u8; payload_len];
        conn.read_exact(&mut payload).unwrap();
        // End the call with an in-band error; the header is all we want.
        let reply = Reply::Error("captured".into());
        conn.write_all(&v3_frame(1, reply.opcode(), 0, 0, &reply.encode()))
            .unwrap();
        (header, payload)
    });
    let mut client = ServeClient::connect(addr)
        .unwrap()
        .with_trace_id(0x0123_4567_89AB_CDEF);
    let _ = client.reconstruct(&counts, &HammerConfig::paper());
    let (header, payload) = fake.join().unwrap();

    #[rustfmt::skip]
    let golden: [u8; 31] = [
        b'H', b'A', b'M', b'R',             // magic
        0x03, 0x00,                         // version 3
        0x02,                               // opcode Reconstruct
        0x01, 0, 0, 0, 0, 0, 0, 0,          // request id 1
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // trace id
        0, 0, 0, 0,                         // no deadline
        41, 0, 0, 0,                        // payload length
    ];
    assert_eq!(header, golden);
    assert_eq!(
        Request::decode(opcode::RECONSTRUCT, &payload).unwrap(),
        request
    );
}

/// The 31-byte headers the server answers with: an untraced `Pong` and
/// a traced `Distribution`, both sent in reply to hand-built v3 frames.
#[test]
fn golden_v3_reply_headers() {
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    stream
        .write_all(&v3_frame(0x1122_3344_5566_7788, opcode::PING, 0, 0, &[]))
        .unwrap();
    let mut pong = [0u8; 31];
    stream.read_exact(&mut pong).unwrap();
    #[rustfmt::skip]
    let golden_pong: [u8; 31] = [
        b'H', b'A', b'M', b'R',
        0x03, 0x00,
        0x81,                                           // opcode Pong
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // echoed id
        0, 0, 0, 0, 0, 0, 0, 0,                         // untraced
        0, 0, 0, 0,                                     // no deadline
        0, 0, 0, 0,                                     // empty payload
    ];
    assert_eq!(pong, golden_pong);

    let mut counts = Counts::new(5).unwrap();
    counts.record_n(bs("11111"), 3);
    counts.record_n(bs("00100"), 2);
    let request = Request::Reconstruct {
        config: HammerConfig::paper(),
        counts: counts.clone(),
    };
    stream
        .write_all(&v3_frame(9, request.opcode(), 0xFEED, 0, &request.encode()))
        .unwrap();
    let mut header = [0u8; 31];
    stream.read_exact(&mut header).unwrap();
    let expected =
        Reply::Distribution(Hammer::with_config(HammerConfig::paper()).reconstruct_counts(&counts))
            .encode();
    let mut golden = b"HAMR".to_vec();
    golden.extend_from_slice(&[0x03, 0x00, 0x82]);
    golden.extend_from_slice(&9u64.to_le_bytes());
    golden.extend_from_slice(&0xFEEDu64.to_le_bytes());
    golden.extend_from_slice(&[0, 0, 0, 0]);
    golden.extend_from_slice(&(expected.len() as u32).to_le_bytes());
    assert_eq!(header.as_slice(), golden.as_slice());
    let mut payload = vec![0u8; expected.len()];
    stream.read_exact(&mut payload).unwrap();
    assert_eq!(
        payload, expected,
        "reply payload byte-identical to the library"
    );

    drop(stream);
    server.shutdown();
    let _ = server.wait();
}

/// A reply with a corrupt header leaves its payload unread on the
/// socket. The client must drop that connection and reconnect, not
/// parse the leftover bytes as the next reply.
#[test]
fn client_reconnects_after_a_corrupt_reply_header() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let accept = move || {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match listener.accept() {
                Ok((conn, _)) => {
                    conn.set_nonblocking(false).unwrap();
                    break Some(conn);
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(_) => break None,
            }
        }
    };
    let fake = std::thread::spawn(move || {
        // First connection: a bad-magic header announcing 8 payload
        // bytes, then those bytes, and the connection stays open.
        let mut first = accept().expect("first connection");
        let mut header = [0u8; 31];
        first.read_exact(&mut header).unwrap();
        let mut corrupt = v3_frame(1, opcode::PONG, 0, 0, &[0xAB; 8]);
        corrupt[..4].copy_from_slice(b"XXXX");
        first.write_all(&corrupt).unwrap();
        // Every later ping must arrive on a fresh connection.
        let mut pongs = 0;
        while let Some(mut conn) = accept() {
            while conn.read_exact(&mut header).is_ok() {
                let id = u64::from_le_bytes(header[7..15].try_into().unwrap());
                conn.write_all(&v3_frame(id, opcode::PONG, 0, 0, &[]))
                    .unwrap();
                pongs += 1;
            }
            if pongs >= 2 {
                break;
            }
        }
        drop(first);
        pongs
    });

    let mut client = ServeClient::connect(addr).unwrap();
    assert!(matches!(
        client.ping(),
        Err(hammer_serve::WireError::BadMagic(m)) if &m == b"XXXX"
    ));
    client.ping().expect("second ping reconnects");
    client.ping().expect("third ping on the new connection");
    drop(client);
    assert_eq!(fake.join().unwrap(), 2);
}
