//! `repro top --once` against an in-process server: one binary-protocol
//! poll renders the request rate, the end-to-end latency row and every
//! declared SLO.

use std::time::{Duration, Instant};

use hammer_bench::top::{run, TopConfig};
use hammer_core::HammerConfig;
use hammer_dist::{BitString, Counts};
use hammer_obs::SloSpec;
use hammer_serve::{serve, ServeClient, ServeConfig};

fn counts(salt: u64) -> Counts {
    let mut counts = Counts::new(6).unwrap();
    for (s, n) in [("111111", 300 + salt), ("111101", 90), ("001100", 210)] {
        counts.record_n(BitString::parse(s).unwrap(), n);
    }
    counts
}

#[test]
fn once_frame_shows_rate_latency_and_slos() {
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        slos: vec![SloSpec::parse("latency:p99:serve.request_ns:50ms:99%:60s").unwrap()],
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("client connects");
    for salt in 0..3 {
        client
            .reconstruct(&counts(salt), &HammerConfig::paper())
            .expect("reconstruct");
    }
    // The writer records `serve.request_ns` after flushing each reply,
    // so the last record can trail the client's last read.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server
        .obs_snapshot()
        .histogram("serve.request_ns")
        .map_or(0, |h| h.count())
        < 3
    {
        assert!(Instant::now() < deadline, "request_ns never reached 3");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut out = Vec::new();
    run(
        &TopConfig {
            addr,
            ..TopConfig::default()
        },
        &mut out,
    )
    .expect("one frame");
    let frame = String::from_utf8(out).unwrap();
    let row = |first: &str| -> Vec<String> {
        frame
            .lines()
            .map(|l| l.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
            .find(|fields| fields.first().map(String::as_str) == Some(first))
            .unwrap_or_else(|| panic!("no `{first}` row in\n{frame}"))
    };
    assert!(frame.contains("req/s"), "{frame}");
    let requests: u64 = row("request_ns")[1].parse().unwrap();
    assert!(requests >= 3, "{frame}");
    // Its state depends on how fast the replies were, so only the row
    // itself is checked.
    assert!(
        ["ok", "FIRING"].contains(&row("p99")[1].as_str()),
        "{frame}"
    );
    drop(client);
    server.shutdown();
    let _ = server.wait();
}
