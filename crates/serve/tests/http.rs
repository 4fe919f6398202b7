//! End-to-end tests of the HTTP exposition listener: a real server on
//! ephemeral ports, real scrapes over TCP, `/metrics` agreeing with a
//! concurrent `MetricsSnapshot`, and a latency SLO driven into
//! violation firing a burn-rate alert within two rollup windows.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hammer_core::HammerConfig;
use hammer_dist::{BitString, Counts};
use hammer_obs::{SeriesValue, SloSpec};
use hammer_serve::{serve, ServeClient, ServeConfig, ServerHandle};

fn start(slos: Vec<SloSpec>, rollup_window_ms: u64) -> ServerHandle {
    serve(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: Some("127.0.0.1:0".into()),
        rollup_window_ms,
        slos,
        workers: 2,
        cache_mb: 4,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral ports")
}

/// One `GET` against the exposition listener; returns (status, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect exposition listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let response = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_owned())
}

/// A small histogram whose reconstruction exercises the full pipeline;
/// `salt` defeats the reply cache so every request computes.
fn job_counts(salt: u64) -> Counts {
    let mut counts = Counts::new(4).unwrap();
    counts.record_n(BitString::parse("1111").unwrap(), 100 + salt);
    counts.record_n(BitString::parse("0000").unwrap(), 80);
    counts.record_n(BitString::parse("1110").unwrap(), 20);
    counts
}

/// `hammer_serve_requests 7` lines of a scrape, keyed by sample name.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// `serve.stage.decode_ns` → `hammer_serve_stage_decode_ns`.
fn mangle(name: &str) -> String {
    let mut out = String::from("hammer_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

#[test]
fn metrics_scrape_agrees_with_concurrent_snapshot() {
    let server = start(Vec::new(), 200);
    let metrics = server.metrics_addr().expect("exposition listener up");
    {
        let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
        for salt in 0..5 {
            client
                .reconstruct(&job_counts(salt), &HammerConfig::paper())
                .expect("reconstruct");
        }
    }
    // The client is gone; once the per-server series stop moving, a
    // scrape and a snapshot bracket the same instant.
    let mut agreed = false;
    for _ in 0..50 {
        let before = server.obs_snapshot();
        let (status, text) = http_get(metrics, "/metrics");
        assert_eq!(status, 200);
        let after = server.obs_snapshot();
        let serve_only = |snap: &hammer_obs::MetricsSnapshot| -> Vec<(String, String)> {
            snap.series
                .iter()
                .filter(|s| s.name.starts_with("serve."))
                .map(|s| (s.name.clone(), format!("{:?}", s.value)))
                .collect()
        };
        if serve_only(&before) != serve_only(&after) {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        let scraped = parse_exposition(&text);
        for s in after.series.iter().filter(|s| s.name.starts_with("serve.")) {
            let mangled = mangle(&s.name);
            match &s.value {
                SeriesValue::Counter(v) => {
                    assert_eq!(
                        scraped.get(&mangled).copied(),
                        Some(*v as f64),
                        "counter {} disagrees with the snapshot",
                        s.name
                    );
                }
                SeriesValue::Gauge(v) => {
                    assert_eq!(
                        scraped.get(&mangled).copied(),
                        Some(*v as f64),
                        "gauge {} disagrees with the snapshot",
                        s.name
                    );
                }
                SeriesValue::Histogram(h) => {
                    assert_eq!(
                        scraped.get(&format!("{mangled}_count")).copied(),
                        Some(h.count() as f64),
                        "histogram {} count disagrees with the snapshot",
                        s.name
                    );
                    // Cumulative buckets end at the total.
                    let inf = format!("{mangled}_bucket{{le=\"+Inf\"}}");
                    assert_eq!(scraped.get(&inf).copied(), Some(h.count() as f64));
                }
            }
        }
        // Sanity of the format itself on a known-hot series.
        assert!(text.contains("# TYPE hammer_serve_requests counter"));
        assert!(text.contains("# TYPE hammer_serve_request_ns histogram"));
        assert!(scraped[&mangle("serve.requests")] >= 5.0);
        agreed = true;
        break;
    }
    assert!(agreed, "per-server series never went quiescent");
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    client.shutdown().unwrap();
    let _ = server.wait();
}

#[test]
fn series_events_and_healthz_endpoints_respond() {
    let server = start(Vec::new(), 100);
    let metrics = server.metrics_addr().expect("exposition listener up");
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    client
        .reconstruct(&job_counts(1000), &HammerConfig::paper())
        .expect("reconstruct");

    let (status, body) = http_get(metrics, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Wait for at least one rollup window to close (the series is 404
    // until the roller's first tick folds it in).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http_get(metrics, "/series?name=serve.requests&window=1");
        if status == 200 && body.contains("\"delta\":") {
            assert!(body.contains("\"name\":\"serve.requests\""));
            assert!(body.contains("\"kind\":\"counter\""));
            break;
        }
        assert!(Instant::now() < deadline, "no rollup window closed in 10 s");
        std::thread::sleep(Duration::from_millis(50));
    }

    let (status, body) = http_get(metrics, "/series");
    assert_eq!(status, 200);
    assert!(body.contains("\"serve.requests\""));
    assert!(body.contains("\"serve.request_ns\""));

    let (status, _) = http_get(metrics, "/series?name=no.such.series");
    assert_eq!(status, 404);

    let (status, body) = http_get(metrics, "/events?n=5");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"dropped\":"));

    let (status, body) = http_get(metrics, "/slo");
    assert_eq!((status, body.as_str()), (200, "{\"slos\":[]}"));

    let (status, _) = http_get(metrics, "/nope");
    assert_eq!(status, 404);

    client.shutdown().unwrap();
    let _ = server.wait();
    // The exposition port is down with the server.
    assert!(TcpStream::connect(metrics).is_err());
}

/// A `/series` window that overflows when turned into milliseconds is
/// clamped to all history: the query gets an answer, the listener keeps
/// serving, and shutdown joins its thread cleanly.
#[test]
fn hostile_series_window_is_answered_and_the_listener_survives() {
    let server = start(Vec::new(), 100);
    let metrics = server.metrics_addr().expect("exposition listener up");
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    client
        .reconstruct(&job_counts(2000), &HammerConfig::paper())
        .expect("reconstruct");
    // The series must exist so the query reaches the rollup rings.
    let deadline = Instant::now() + Duration::from_secs(10);
    while http_get(metrics, "/series?name=serve.requests&window=1").0 != 200 {
        assert!(Instant::now() < deadline, "no rollup window closed in 10 s");
        std::thread::sleep(Duration::from_millis(50));
    }

    let hostile = format!("/series?name=serve.requests&window={}", u64::MAX);
    let (status, body) = http_get(metrics, &hostile);
    assert_eq!(status, 200, "{body}");
    let point_window_ms: u64 = body
        .split("\"point_window_ms\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .expect("point_window_ms field");
    assert!(point_window_ms >= u64::MAX / 2, "{body}");
    assert!(
        body.contains("\"delta\":"),
        "one point spans all history: {body}"
    );

    let (status, body) = http_get(metrics, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    client.shutdown().unwrap();
    let _ = server.wait();
}

#[test]
fn violated_latency_slo_fires_within_two_windows() {
    // 100 ms windows; a 99%-of-requests-under-1ms objective over 60 s.
    let spec = SloSpec::parse("latency:fast_p99:serve.request_ns:1ms:99%:60s").expect("valid spec");
    let server = start(vec![spec], 100);
    let metrics = server.metrics_addr().expect("exposition listener up");
    hammer_serve::fault::set_slow_compute_ms(10);

    // Drive slowed requests and poll: the alert must show up while the
    // violation is only a couple of windows old.
    let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut salt = 0u64;
    let fired = loop {
        salt += 1;
        client
            .reconstruct(&job_counts(salt), &HammerConfig::paper())
            .expect("reconstruct");
        let (status, body) = http_get(metrics, "/slo");
        assert_eq!(status, 200);
        // Empty until the roller's first evaluation tick.
        if body.contains("\"name\":\"fast_p99\"") && body.contains("\"firing\":true") {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
    };
    hammer_serve::fault::reset();
    assert!(fired, "SLO never fired despite 100% violation");

    // The alert is visible as a warn event...
    let (status, body) = http_get(metrics, "/events?n=50&level=warn");
    assert_eq!(status, 200);
    assert!(
        body.contains("slo alert firing"),
        "no firing event in {body}"
    );
    // ...and as a positive burn-rate gauge (milli-burn units).
    let snap = server.obs_snapshot();
    assert!(snap.gauge("serve.slo.burn_rate").unwrap_or(0) > 0);
    assert!(snap.gauge("serve.slo.fast_p99.burn_rate").unwrap_or(0) > 0);

    client.shutdown().unwrap();
    let _ = server.wait();
}
