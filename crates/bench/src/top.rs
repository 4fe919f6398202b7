//! `repro top` — a live terminal dashboard over a running server.
//!
//! Every poll reads one `MetricsSnapshot` over the binary protocol (the
//! serving port) and folds it into a client-side [`TimeSeries`], the
//! same rollup engine behind the server's `/series`. The frame renders
//! from that history alone: request rate, queue depth and connections,
//! cache hit rate, store traffic, per-stage latency quantiles and the
//! SLO burn gauges.
//!
//! The first window holds the server's whole history up to the first
//! poll, so `--once` (one poll) prints lifetime figures. Live mode
//! redraws every `--interval-ms` until interrupted; from the second
//! poll on, every figure spans the polls since the first, at most
//! the last 30.

use std::io::Write;
use std::time::Duration;

use hammer_obs::{PointValue, RollupConfig, TimeSeries, DEFAULT_BURN_THRESHOLD};

/// What `repro top` connects to and how.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// The serving address.
    pub addr: String,
    /// Render one frame and exit.
    pub once: bool,
    /// Poll and redraw period in live mode; also the width of one
    /// client-side rollup window.
    pub interval_ms: u64,
    /// Maximum frames to render in live mode; `None` runs until the
    /// process is interrupted. (Tests bound their runs with this.)
    pub max_frames: Option<u64>,
}

impl Default for TopConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            once: true,
            interval_ms: 1_000,
            max_frames: None,
        }
    }
}

/// Most polls a frame's figures span (the sparkline's width).
const HISTORY: usize = 30;

/// The latency series the stage table lists, in pipeline order.
const STAGES: [&str; 9] = [
    "serve.stage.decode_ns",
    "serve.stage.queue_ns",
    "serve.stage.coalesce_wait_ns",
    "serve.stage.cache_probe_ns",
    "serve.stage.store_load_ns",
    "serve.stage.compute_ns",
    "serve.stage.encode_ns",
    "serve.stage.write_ns",
    "serve.request_ns",
];

/// Runs the dashboard, writing frames to `out`.
///
/// # Errors
///
/// Connection and protocol failures, described.
pub fn run(config: &TopConfig, out: &mut impl Write) -> Result<(), String> {
    let interval_ms = config.interval_ms.max(100);
    let series = TimeSeries::new(RollupConfig {
        window_ms: interval_ms,
        ..RollupConfig::default()
    });
    let mut client = hammer_serve::ServeClient::connect(&config.addr)
        .map_err(|e| format!("connect {}: {e}", config.addr))?
        .with_io_timeout(Some(Duration::from_secs(3)));
    let mut frames = 0u64;
    loop {
        let snap = client
            .metrics_snapshot()
            .map_err(|e| format!("metrics snapshot: {e}"))?;
        series.roll(&snap);
        if !config.once {
            // Clear + home; plain ANSI, no terminal library.
            let _ = write!(out, "\x1b[2J\x1b[H");
        }
        writeln!(out, "{}", frame(&config.addr, &series))
            .map_err(|e| format!("write frame: {e}"))?;
        frames += 1;
        if config.once || config.max_frames.is_some_and(|max| frames >= max) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Renders one frame from the client-side rollup history.
fn frame(addr: &str, ts: &TimeSeries) -> String {
    let rolled = ts.windows_rolled() as usize;
    let window_ms = ts.config().window_ms;
    // The first window is lifetime-to-date, so it is the span only
    // while it is the only window.
    let (span, label) = if rolled <= 1 {
        (1, "lifetime".to_owned())
    } else {
        let n = (rolled - 1).min(HISTORY);
        (n, format!("last {n} polls, {window_ms} ms apart"))
    };
    let mut f = format!("repro top — {addr} ({label})\n\n");

    let deltas: Vec<u64> = ts
        .query("serve.requests", 1, span)
        .map(|s| {
            s.points
                .iter()
                .filter_map(|p| match p.value {
                    PointValue::Rate { delta, .. } => Some(delta),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    let rate = match deltas.last() {
        Some(&delta) if rolled > 1 => format!("{:.1}", delta as f64 * 1e3 / window_ms as f64),
        _ => "-".to_owned(),
    };
    f.push_str(&format!(
        "req/s {rate:>9}  {}  {} requests\n",
        sparkline(&deltas),
        deltas.iter().sum::<u64>()
    ));
    if let (Some(depth), Some(conns)) = (
        gauge_last(ts, "serve.queue.depth"),
        gauge_last(ts, "serve.connections"),
    ) {
        f.push_str(&format!("queue {depth:>9}  conns {conns}\n"));
    }
    let hits = ts.counter_delta("serve.cache.hits", span);
    let misses = ts.counter_delta("serve.cache.misses", span);
    if hits + misses > 0 {
        f.push_str(&format!(
            "cache {:>8.1}%  hit rate ({hits} hits / {misses} misses)\n",
            100.0 * hits as f64 / (hits + misses) as f64
        ));
    }
    let spills = ts.counter_delta("serve.store.spills", span);
    let loads = ts.counter_delta("serve.store.loads", span);
    if spills + loads > 0 {
        f.push_str(&format!("store {spills:>9}  spills / {loads} loads\n"));
    }

    f.push_str("\nstage            count      p50        p95        p99\n");
    for stage in STAGES {
        let h = ts.merged_histogram(stage, span);
        let count = h.count();
        if count > 0 {
            let label = stage
                .trim_start_matches("serve.stage.")
                .trim_start_matches("serve.");
            f.push_str(&format!(
                "{label:<14} {count:>7}  {:>9} {:>10} {:>10}\n",
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.95)),
                fmt_ns(h.quantile(0.99))
            ));
        }
    }

    // SLOs from the per-objective burn gauges (milli-burn), judged
    // against the server's own alert threshold.
    let slos: Vec<(String, i64)> = ts
        .names()
        .into_iter()
        .filter_map(|name| {
            let slo = name
                .strip_prefix("serve.slo.")?
                .strip_suffix(".burn_rate")?;
            Some((slo.to_owned(), gauge_last(ts, &name)?))
        })
        .collect();
    if !slos.is_empty() {
        f.push_str("\nslo              state     burn\n");
        for (name, milli) in slos {
            let burn = milli as f64 / 1_000.0;
            let state = if burn >= DEFAULT_BURN_THRESHOLD {
                "FIRING"
            } else {
                "ok"
            };
            f.push_str(&format!("{name:<14} {state:>8}  {burn:>7.1}\n"));
        }
    }
    f
}

/// Latest value of a gauge series.
fn gauge_last(ts: &TimeSeries, name: &str) -> Option<i64> {
    match ts.query(name, 1, 1)?.points.last()?.value {
        PointValue::Gauge { last, .. } => Some(last),
        _ => None,
    }
}

/// `1234567` ns → `1.23ms`; keeps stage tables readable across six
/// orders of magnitude.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.2}us", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// A unicode block-character sparkline of the values, scaled to their
/// max (empty input renders empty).
fn sparkline(values: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return values.iter().map(|_| BLOCKS[0]).collect();
    }
    values
        .iter()
        .map(|&v| BLOCKS[((v * 7).div_ceil(max) as usize).min(7)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_obs::{HistogramSnapshot, MetricsSnapshot, SeriesSnapshot, SeriesValue};

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(25_000), "25.00us");
        assert_eq!(fmt_ns(1_234_567), "1234.57us");
        assert_eq!(fmt_ns(25_000_000), "25.00ms");
        assert_eq!(fmt_ns(12_000_000_000), "12.00s");
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let line = sparkline(&[0, 5, 10]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
        assert!(line.starts_with('▁'));
    }

    /// Whitespace-split fields of the frame line whose first field is
    /// `first`.
    fn row<'a>(frame: &'a str, first: &str) -> Vec<&'a str> {
        frame
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|fields| fields.first() == Some(&first))
            .unwrap_or_else(|| panic!("no `{first}` row in\n{frame}"))
    }

    /// A server snapshot with cumulative counters, `fast` request
    /// latencies in the 1 µs bucket, `slow` ones in the 5 ms bucket and
    /// fixed gauges, built by hand so no global timing switch applies.
    fn snapshot(requests: u64, hits: u64, misses: u64, fast: u64, slow: u64) -> MetricsSnapshot {
        let mut latency = HistogramSnapshot::empty();
        latency.buckets[9] = fast; // [512, 1023] ns
        latency.buckets[22] = slow; // [4.19, 8.39) ms
        let series = |name: &str, value| SeriesSnapshot {
            name: name.to_owned(),
            value,
        };
        MetricsSnapshot {
            series: vec![
                series("serve.requests", SeriesValue::Counter(requests)),
                series("serve.cache.hits", SeriesValue::Counter(hits)),
                series("serve.cache.misses", SeriesValue::Counter(misses)),
                series("serve.request_ns", SeriesValue::Histogram(latency)),
                series("serve.queue.depth", SeriesValue::Gauge(3)),
                series("serve.connections", SeriesValue::Gauge(2)),
                series("serve.slo.burn_rate", SeriesValue::Gauge(14_400)),
                series("serve.slo.hot.burn_rate", SeriesValue::Gauge(14_400)),
                series("serve.slo.cool.burn_rate", SeriesValue::Gauge(14_399)),
            ],
        }
    }

    #[test]
    fn frame_renders_windowed_figures_from_the_rollup() {
        let ts = TimeSeries::new(RollupConfig {
            window_ms: 1_000,
            ..RollupConfig::default()
        });
        // Lifetime-to-date at the first poll: fast, all cache hits.
        ts.roll_at(&snapshot(1_000, 1_000, 0, 1_000, 0), 1_000);
        let first = frame("test", &ts);
        assert!(first.contains("(lifetime)"), "{first}");
        assert_eq!(row(&first, "req/s")[1], "-", "{first}");
        assert!(first.contains("1000 requests"), "{first}");

        // Two more polls of slow, all-miss traffic: +10, then +20.
        ts.roll_at(&snapshot(1_010, 1_000, 10, 1_000, 10), 2_000);
        ts.roll_at(&snapshot(1_030, 1_000, 30, 1_000, 30), 3_000);
        let f = frame("test", &ts);
        assert!(f.contains("(last 2 polls, 1000 ms apart)"), "{f}");
        // The windowed delta, never the lifetime total of 1030.
        let req = row(&f, "req/s");
        assert_eq!(req[1], "20.0", "{f}");
        assert_eq!(req[3..], ["30", "requests"], "{f}");
        assert!(!f.contains("1030"), "{f}");
        assert_eq!(row(&f, "cache")[1], "0.0%", "{f}");
        assert_eq!(row(&f, "queue")[1..], ["3", "conns", "2"], "{f}");
        let mut slow = HistogramSnapshot::empty();
        slow.buckets[22] = 30;
        assert_eq!(
            row(&f, "request_ns")[1..],
            [
                "30".to_owned(),
                fmt_ns(slow.quantile(0.50)),
                fmt_ns(slow.quantile(0.95)),
                fmt_ns(slow.quantile(0.99))
            ],
            "{f}"
        );
        // Per-objective gauges only, judged at the alert threshold.
        assert_eq!(row(&f, "hot")[1..], ["FIRING", "14.4"], "{f}");
        assert_eq!(row(&f, "cool")[1..], ["ok", "14.4"], "{f}");
        assert!(!f.contains("\nburn_rate"), "{f}");
    }
}
