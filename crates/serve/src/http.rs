//! A std-only HTTP/1.1 exposition listener for scrapes and dashboards.
//!
//! Runs on one dedicated thread, completely protocol-blind to the main
//! binary TCP tier (`--metrics-addr` binds a *different* port):
//!
//! * `GET /metrics` — every registered series in Prometheus text
//!   exposition format (counters, gauges, cumulative `le`-labeled
//!   histogram buckets);
//! * `GET /series?name=&window=&points=` — JSON time-series from the
//!   rollup rings (`window` = seconds per point, default 1; omit
//!   `name` for the list of series names);
//! * `GET /events?n=&level=` — JSON tail of the structured event log;
//! * `GET /slo` — JSON burn-rate status of every declared SLO;
//! * `GET /healthz` — `200 ok` while serving, `503 draining` once
//!   shutdown has begun.
//!
//! Connections are handled inline (`Connection: close`, one request
//! each): a scrape is microseconds of registry reads, and the
//! dedicated thread means a stalled scraper can never touch the
//! serving tier. Request parsing is the minimum HTTP/1.1 a scraper
//! emits — request line plus headers, GET only.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hammer_obs::{
    HistogramSnapshot, Level, MetricsSnapshot, PointValue, RollupSeries, SeriesValue, SloStatus,
};

use crate::server::ServerState;

/// How long a scraper may take to deliver its request line or accept
/// the response before the connection is reaped.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept-poll tick; bounds shutdown latency of the listener thread.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

/// Binds the exposition listener and spawns its thread. The thread
/// exits within one accept tick of the server flagging shutdown.
pub(crate) fn spawn(
    addr: &str,
    state: Arc<ServerState>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("hammer-serve-http".into())
        .spawn(move || {
            while !state.is_shutting_down() {
                match listener.accept() {
                    Ok((stream, _)) => handle_connection(stream, &state),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_TICK);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_TICK),
                }
            }
        })?;
    Ok((local_addr, handle))
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT));
    let Some(target) = read_request_target(&mut stream) else {
        respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    match path {
        "/healthz" => {
            if state.is_shutting_down() {
                respond(&mut stream, 503, "text/plain", "draining\n");
            } else {
                respond(&mut stream, 200, "text/plain", "ok\n");
            }
        }
        "/metrics" => {
            let body = prometheus_text(&state.obs_snapshot());
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body);
        }
        "/series" => match series_json(state, query) {
            Ok(body) => respond(&mut stream, 200, "application/json", &body),
            Err(msg) => respond(&mut stream, 404, "text/plain", &format!("{msg}\n")),
        },
        "/events" => {
            let body = events_json(state, query);
            respond(&mut stream, 200, "application/json", &body);
        }
        "/slo" => {
            let body = slo_json(&state.slo_statuses());
            respond(&mut stream, 200, "application/json", &body);
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Reads the request head and returns the target of a GET request
/// (`/metrics?name=...`). Anything else — other methods, malformed
/// lines, a peer that stalls — returns `None`.
fn read_request_target(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Byte-at-a-time until the blank line; request heads are tiny and
    // this never over-reads into a body (there is none for GET).
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
        if head.len() > 8192 {
            return None; // oversized head: not a scraper
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    (method == "GET").then(|| target.to_owned())
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Value of `key` in a query string (`a=1&b=2`), undecoded. Series
/// names and the numeric parameters never need percent-escapes.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

// ---------------------------------------------------------------------
// /metrics — Prometheus text exposition
// ---------------------------------------------------------------------

/// `serve.stage.decode_ns` → `hammer_serve_stage_decode_ns`.
fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("hammer_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders a whole snapshot in Prometheus text exposition format.
pub(crate) fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for s in &snap.series {
        let name = mangle(&s.name);
        match &s.value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            SeriesValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            SeriesValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                push_histogram(&mut out, &name, h);
            }
        }
    }
    out
}

/// Emits cumulative `le`-labeled buckets. Each log₂ bucket's inclusive
/// upper bound is its `le`; buckets above the highest non-empty one are
/// elided (they would all repeat the total). `_sum` is approximated
/// from bucket midpoints — log₂ buckets do not retain exact sums — so
/// scrape consumers get a usable average at ≤ 50% bucket error.
fn push_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    let mut sum = 0.0f64;
    let highest = h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    for (i, &c) in h.buckets.iter().enumerate().take(highest) {
        cum += c;
        let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
        sum += c as f64 * ((lo as f64 + hi as f64) / 2.0);
        out.push_str(&format!("{name}_bucket{{le=\"{hi}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
    out.push_str(&format!("{name}_sum {sum:.0}\n"));
    out.push_str(&format!("{name}_count {cum}\n"));
}

// ---------------------------------------------------------------------
// /series, /events, /slo — hand-rolled JSON (the workspace carries no
// serde; every payload below is flat enough that escaping strings is
// the only subtlety)
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn series_json(state: &Arc<ServerState>, query: &str) -> Result<String, String> {
    let ts = state.time_series();
    let Some(name) = query_param(query, "name").filter(|n| !n.is_empty()) else {
        // No name: enumerate what can be queried.
        let names = ts.names();
        let list: Vec<String> = names
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        return Ok(format!("{{\"names\":[{}]}}", list.join(",")));
    };
    let window_secs: u64 = query_param(query, "window")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let points: usize = query_param(query, "points")
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    // Saturating: the window comes off the query string, and an absurd
    // one must clamp to "all history", not overflow.
    let window_ms = window_secs.max(1).saturating_mul(1_000);
    let group = (window_ms / ts.config().window_ms.max(1)).max(1);
    let group = usize::try_from(group).unwrap_or(usize::MAX);
    let series = ts
        .query(name, group, points.clamp(1, 10_000))
        .ok_or_else(|| format!("unknown series `{name}`"))?;
    Ok(render_series(&series))
}

fn render_series(series: &RollupSeries) -> String {
    let points: Vec<String> = series
        .points
        .iter()
        .map(|p| match &p.value {
            PointValue::Rate { delta, per_sec } => format!(
                "{{\"unix_ms\":{},\"delta\":{delta},\"per_sec\":{per_sec:.3}}}",
                p.unix_ms
            ),
            PointValue::Gauge { min, max, last } => format!(
                "{{\"unix_ms\":{},\"min\":{min},\"max\":{max},\"last\":{last}}}",
                p.unix_ms
            ),
            PointValue::Quantiles {
                count,
                p50_ns,
                p95_ns,
                p99_ns,
                max_ns,
            } => format!(
                "{{\"unix_ms\":{},\"count\":{count},\"p50_ns\":{p50_ns},\"p95_ns\":{p95_ns},\"p99_ns\":{p99_ns},\"max_ns\":{max_ns}}}",
                p.unix_ms
            ),
        })
        .collect();
    format!(
        "{{\"name\":\"{}\",\"kind\":\"{}\",\"point_window_ms\":{},\"points\":[{}]}}",
        json_escape(&series.name),
        series.kind.as_str(),
        series.point_window_ms,
        points.join(",")
    )
}

fn events_json(state: &Arc<ServerState>, query: &str) -> String {
    let n: usize = query_param(query, "n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let min_level = query_param(query, "level")
        .and_then(Level::parse)
        .unwrap_or(Level::Debug);
    let log = state.event_log();
    let events: Vec<String> = log
        .tail(n.clamp(1, 10_000), min_level)
        .iter()
        .map(|e| {
            let fields: Vec<String> = e
                .fields
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
                .collect();
            format!(
                "{{\"seq\":{},\"unix_ms\":{},\"level\":\"{}\",\"target\":\"{}\",\"message\":\"{}\",\"trace_id\":\"{:016x}\",\"fields\":{{{}}}}}",
                e.seq,
                e.unix_ms,
                e.level.as_str(),
                json_escape(e.target),
                json_escape(&e.message),
                e.trace_id,
                fields.join(",")
            )
        })
        .collect();
    format!(
        "{{\"dropped\":{},\"events\":[{}]}}",
        log.dropped(),
        events.join(",")
    )
}

pub(crate) fn slo_json(statuses: &[SloStatus]) -> String {
    let slos: Vec<String> = statuses
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"firing\":{},\"fast_burn\":{:.3},\"slow_burn\":{:.3},\"bad_fraction\":{:.6},\"fast_windows\":{},\"slow_windows\":{}}}",
                json_escape(&s.name),
                s.firing,
                s.fast_burn,
                s.slow_burn,
                s.bad_fraction,
                s.fast_windows,
                s.slow_windows
            )
        })
        .collect();
    format!("{{\"slos\":[{}]}}", slos.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_obs::Registry;

    #[test]
    fn mangles_names_with_prefix() {
        assert_eq!(mangle("serve.requests"), "hammer_serve_requests");
        assert_eq!(
            mangle("serve.stage.decode_ns"),
            "hammer_serve_stage_decode_ns"
        );
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let reg = Registry::new();
        reg.counter("serve.requests").add(7);
        reg.gauge("serve.queue.depth").set(-2);
        let h = reg.histogram("serve.request_ns");
        h.record(100); // bucket 6: [64, 127]
        h.record(100);
        h.record(1_000); // bucket 9: [512, 1023]
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE hammer_serve_requests counter\nhammer_serve_requests 7\n"));
        assert!(
            text.contains("# TYPE hammer_serve_queue_depth gauge\nhammer_serve_queue_depth -2\n")
        );
        assert!(text.contains("hammer_serve_request_ns_bucket{le=\"127\"} 2\n"));
        assert!(text.contains("hammer_serve_request_ns_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("hammer_serve_request_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("hammer_serve_request_ns_count 3\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_elide_the_tail() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        h.record(3); // bucket 1
        let text = prometheus_text(&reg.snapshot());
        // One real bucket plus +Inf; nothing for buckets 2..64.
        assert_eq!(text.matches("_bucket").count(), 3);
        assert!(text.contains("hammer_h_bucket{le=\"3\"} 1\n"));
    }

    #[test]
    fn query_params_parse() {
        let q = "name=serve.requests&window=60&points=5";
        assert_eq!(query_param(q, "name"), Some("serve.requests"));
        assert_eq!(query_param(q, "window"), Some("60"));
        assert_eq!(query_param(q, "missing"), None);
        assert_eq!(query_param("", "name"), None);
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
