//! The time-series engine: fixed-capacity rings of per-window rollups
//! over every registered metric series.
//!
//! A [`TimeSeries`] is fed whole [`MetricsSnapshot`]s by a roller (the
//! serving tier ticks one per rollup window, default 1 s) and turns the
//! cumulative values into *windowed* ones:
//!
//! * **counters** — the per-window delta (and therefore a rate);
//! * **histograms** — the per-window bucket deltas, merged back into a
//!   [`HistogramSnapshot`] at query time for windowed quantiles;
//! * **gauges** — the sampled value at roll time, with min/max/last
//!   preserved under merging.
//!
//! Two tiers bound memory: a **fine** ring of raw windows (default
//! 900 × 1 s ≈ 15 min) and a **coarse** ring of merged windows (default
//! 240 × 1 min = 4 h). Queries that group more fine windows than a
//! coarse window holds are answered from the coarse tier.
//!
//! The engine never touches the metric write path: writers keep doing
//! relaxed atomic adds; the roller reads a snapshot (itself lock-light)
//! and folds it into the rings under one mutex shared only with
//! queries.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, SeriesValue, HIST_BUCKETS};

/// Milliseconds since the Unix epoch, for stamping rollup windows.
#[must_use]
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Shape of the rollup rings.
#[derive(Debug, Clone, Copy)]
pub struct RollupConfig {
    /// Nominal width of one fine window in milliseconds (the roller's
    /// tick period). Only used for rate math and reporting — the engine
    /// itself is tick-driven and never sleeps.
    pub window_ms: u64,
    /// Fine windows retained (default 900: 15 min of 1 s windows).
    pub fine_capacity: usize,
    /// Fine windows merged into one coarse window (default 60).
    pub coarse_factor: usize,
    /// Coarse windows retained (default 240: 4 h of 1 min windows).
    pub coarse_capacity: usize,
}

impl Default for RollupConfig {
    fn default() -> Self {
        Self {
            window_ms: 1_000,
            fine_capacity: 900,
            coarse_factor: 60,
            coarse_capacity: 240,
        }
    }
}

impl RollupConfig {
    fn sane(mut self) -> Self {
        self.window_ms = self.window_ms.max(1);
        self.fine_capacity = self.fine_capacity.max(2);
        self.coarse_factor = self.coarse_factor.max(2);
        self.coarse_capacity = self.coarse_capacity.max(2);
        self
    }
}

/// What kind of series a rollup ring tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic counter: windows hold deltas.
    Counter,
    /// Point-in-time gauge: windows hold sampled min/max/last.
    Gauge,
    /// Latency histogram: windows hold bucket deltas.
    Histogram,
}

impl SeriesKind {
    /// Lower-case name used in JSON payloads.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// One rollup window's worth of a single series.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WindowValue {
    /// Counter delta within the window.
    Counter(u64),
    /// Gauge sampled at the end of the window (min/max/last diverge
    /// only after merging).
    Gauge { min: i64, max: i64, last: i64 },
    /// Histogram bucket deltas within the window; `None` = no
    /// observations (the overwhelmingly common case, kept allocation
    /// free).
    Histogram(Option<Box<[u64; HIST_BUCKETS]>>),
}

impl WindowValue {
    fn kind(&self) -> SeriesKind {
        match self {
            WindowValue::Counter(_) => SeriesKind::Counter,
            WindowValue::Gauge { .. } => SeriesKind::Gauge,
            WindowValue::Histogram(_) => SeriesKind::Histogram,
        }
    }

    /// Folds another window of the same series into `self`.
    fn merge(&mut self, other: &WindowValue) {
        match (self, other) {
            (WindowValue::Counter(a), WindowValue::Counter(b)) => *a = a.saturating_add(*b),
            (
                WindowValue::Gauge { min, max, last },
                WindowValue::Gauge {
                    min: omin,
                    max: omax,
                    last: olast,
                },
            ) => {
                *min = (*min).min(*omin);
                *max = (*max).max(*omax);
                // `other` is always the later window in a merge pass.
                *last = *olast;
            }
            (WindowValue::Histogram(a), WindowValue::Histogram(b)) => {
                if let Some(ob) = b {
                    match a {
                        Some(ab) => {
                            for (x, y) in ab.iter_mut().zip(ob.iter()) {
                                *x = x.saturating_add(*y);
                            }
                        }
                        None => *a = Some(ob.clone()),
                    }
                }
            }
            _ => unreachable!("a series never changes kind"),
        }
    }

    fn empty_like(&self) -> WindowValue {
        match self {
            WindowValue::Counter(_) => WindowValue::Counter(0),
            WindowValue::Gauge { last, .. } => WindowValue::Gauge {
                min: *last,
                max: *last,
                last: *last,
            },
            WindowValue::Histogram(_) => WindowValue::Histogram(None),
        }
    }
}

/// The last cumulative value seen for a series — the subtrahend of the
/// next window's delta.
enum PrevValue {
    Counter(u64),
    Histogram(Box<[u64; HIST_BUCKETS]>),
}

/// Rollup rings of one series. Rings are aligned at the **back**: every
/// roll pushes exactly one window per live series, so the most recent
/// entries of every series coincide even when a series was registered
/// mid-flight (its rings are simply shorter).
struct SeriesRings {
    fine: VecDeque<WindowValue>,
    coarse: VecDeque<WindowValue>,
    /// Partial coarse window being accumulated (None until the series'
    /// first window of the current coarse period).
    partial: Option<WindowValue>,
}

struct TsInner {
    /// Total rolls performed (drives coarse-window boundaries).
    rolled: u64,
    /// End-of-window stamps for the fine ring (aligned at the back with
    /// every series' fine ring).
    fine_stamps: VecDeque<u64>,
    /// End-of-window stamps for the coarse ring.
    coarse_stamps: VecDeque<u64>,
    prev: BTreeMap<String, PrevValue>,
    series: BTreeMap<String, SeriesRings>,
}

/// The time-series engine. See the module docs.
pub struct TimeSeries {
    config: RollupConfig,
    inner: Mutex<TsInner>,
}

impl TimeSeries {
    /// An empty engine with the given ring shape.
    #[must_use]
    pub fn new(config: RollupConfig) -> Self {
        Self {
            config: config.sane(),
            inner: Mutex::new(TsInner {
                rolled: 0,
                fine_stamps: VecDeque::new(),
                coarse_stamps: VecDeque::new(),
                prev: BTreeMap::new(),
                series: BTreeMap::new(),
            }),
        }
    }

    /// The ring shape this engine was built with.
    #[must_use]
    pub fn config(&self) -> RollupConfig {
        self.config
    }

    /// Number of rollup windows folded in so far.
    #[must_use]
    pub fn windows_rolled(&self) -> u64 {
        self.inner.lock().unwrap().rolled
    }

    /// Folds one snapshot in, closing the current window, stamped with
    /// the wall clock.
    pub fn roll(&self, snap: &MetricsSnapshot) {
        self.roll_at(snap, unix_ms_now());
    }

    /// Folds one snapshot in with an explicit end-of-window stamp
    /// (tests and replay tooling).
    pub fn roll_at(&self, snap: &MetricsSnapshot, unix_ms: u64) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.rolled += 1;
        for s in &snap.series {
            let window = match &s.value {
                SeriesValue::Counter(now) => {
                    let before = match inner.prev.get_mut(s.name.as_str()) {
                        Some(PrevValue::Counter(v)) => {
                            let before = *v;
                            *v = *now;
                            before
                        }
                        // A counter's first sighting: its whole history
                        // lands in this window (counters start at 0, so
                        // for a fresh registry this is exact).
                        _ => {
                            inner.prev.insert(s.name.clone(), PrevValue::Counter(*now));
                            0
                        }
                    };
                    WindowValue::Counter(now.saturating_sub(before))
                }
                SeriesValue::Gauge(v) => WindowValue::Gauge {
                    min: *v,
                    max: *v,
                    last: *v,
                },
                SeriesValue::Histogram(h) => {
                    let delta = match inner.prev.get_mut(s.name.as_str()) {
                        Some(PrevValue::Histogram(prev)) => {
                            let mut delta: Option<Box<[u64; HIST_BUCKETS]>> = None;
                            for i in 0..HIST_BUCKETS {
                                let d = h.buckets[i].saturating_sub(prev[i]);
                                if d > 0 {
                                    delta.get_or_insert_with(|| Box::new([0; HIST_BUCKETS]))[i] = d;
                                }
                            }
                            prev.copy_from_slice(&h.buckets);
                            delta
                        }
                        _ => {
                            inner
                                .prev
                                .insert(s.name.clone(), PrevValue::Histogram(Box::new(h.buckets)));
                            (h.count() > 0).then(|| Box::new(h.buckets))
                        }
                    };
                    WindowValue::Histogram(delta)
                }
            };
            let rings = inner
                .series
                .entry(s.name.clone())
                .or_insert_with(|| SeriesRings {
                    fine: VecDeque::new(),
                    coarse: VecDeque::new(),
                    partial: None,
                });
            match &mut rings.partial {
                Some(p) => p.merge(&window),
                None => rings.partial = Some(window.clone()),
            }
            if rings.fine.len() == self.config.fine_capacity {
                rings.fine.pop_front();
            }
            rings.fine.push_back(window);
        }
        if inner.fine_stamps.len() == self.config.fine_capacity {
            inner.fine_stamps.pop_front();
        }
        inner.fine_stamps.push_back(unix_ms);
        // Coarse boundary: every `coarse_factor` rolls, every live
        // series closes its partial (series that appeared mid-period
        // close a shorter partial — deltas stay exact).
        if inner
            .rolled
            .is_multiple_of(self.config.coarse_factor as u64)
        {
            for rings in inner.series.values_mut() {
                let closed = match rings.partial.take() {
                    Some(p) => p,
                    // Series registered before this period but idle
                    // through all of it (possible only via merge of an
                    // empty snapshot; keep the rings aligned anyway).
                    None => match rings.coarse.back().or_else(|| rings.fine.back()) {
                        Some(w) => w.empty_like(),
                        None => continue,
                    },
                };
                if rings.coarse.len() == self.config.coarse_capacity {
                    rings.coarse.pop_front();
                }
                rings.coarse.push_back(closed);
            }
            if inner.coarse_stamps.len() == self.config.coarse_capacity {
                inner.coarse_stamps.pop_front();
            }
            inner.coarse_stamps.push_back(unix_ms);
        }
    }

    /// Names of every series with at least one rolled window, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().unwrap().series.keys().cloned().collect()
    }

    /// Queries one series: the most recent `max_points` points, each
    /// merging `group` consecutive fine windows (clamped to ≥ 1). When
    /// `group` reaches the coarse factor the coarse ring answers
    /// instead, extending reach beyond the fine ring's retention.
    ///
    /// Returns `None` for a name the engine has never seen.
    #[must_use]
    pub fn query(&self, name: &str, group: usize, max_points: usize) -> Option<RollupSeries> {
        let group = group.max(1);
        let max_points = max_points.max(1);
        let inner = self.inner.lock().unwrap();
        let rings = inner.series.get(name)?;
        // Queries wide enough for the coarse tier fall back to the fine
        // ring while no coarse window has closed yet (early uptime):
        // fewer windows merged per point beats no points at all.
        let use_coarse = group >= self.config.coarse_factor && !rings.coarse.is_empty();
        let (ring, stamps, group, window_ms) = if use_coarse {
            let g = (group / self.config.coarse_factor).max(1);
            (
                &rings.coarse,
                &inner.coarse_stamps,
                g,
                self.config
                    .window_ms
                    .saturating_mul(self.config.coarse_factor as u64)
                    .saturating_mul(g as u64),
            )
        } else {
            (
                &rings.fine,
                &inner.fine_stamps,
                group,
                self.config.window_ms.saturating_mul(group as u64),
            )
        };
        let kind = ring
            .back()
            .or(rings.partial.as_ref())
            .map_or(SeriesKind::Counter, WindowValue::kind);
        let mut points = Vec::new();
        // Walk back-to-front in `group`-sized strides; rings are
        // back-aligned with their stamp deques (a late-registered
        // series is shorter, so offset its stamps by the difference).
        let stamp_skew = stamps.len().saturating_sub(ring.len());
        let mut end = ring.len();
        while end > 0 && points.len() < max_points {
            let start = end.saturating_sub(group);
            let mut merged = ring[start].clone();
            for w in ring.iter().skip(start + 1).take(end - start - 1) {
                merged.merge(w);
            }
            let stamp = stamps
                .get(stamp_skew + end - 1)
                .copied()
                .unwrap_or_default();
            points.push(RollupPoint {
                unix_ms: stamp,
                value: point_of(&merged, window_ms),
            });
            end = start;
        }
        points.reverse();
        Some(RollupSeries {
            name: name.to_owned(),
            kind,
            point_window_ms: window_ms,
            points,
        })
    }

    /// Fine windows of history the rings can answer for: every window
    /// rolled so far, up to the coarse ring's span.
    #[must_use]
    pub fn reach(&self) -> usize {
        let rolled = usize::try_from(self.windows_rolled()).unwrap_or(usize::MAX);
        let coarse_span = self
            .config
            .coarse_capacity
            .saturating_mul(self.config.coarse_factor);
        rolled.min(self.config.fine_capacity.max(coarse_span))
    }

    /// The windows of `name` that together cover its last `group` fine
    /// windows (clamped to ≥ 1). The fine ring answers while it reaches
    /// that far. Past its reach the open coarse window and then enough
    /// closed coarse windows answer, rounded up to whole coarse windows;
    /// until a coarse window closes, the fine ring answers with all it
    /// holds, as in [`query`](Self::query).
    fn span<'a>(
        &self,
        inner: &'a TsInner,
        name: &str,
        group: usize,
    ) -> impl Iterator<Item = &'a WindowValue> + 'a {
        let group = group.max(1);
        let factor = self.config.coarse_factor;
        // Fine windows rolled since the last coarse boundary: the span
        // of every series' open (partial) coarse window.
        let open = (inner.rolled % factor as u64) as usize;
        inner.series.get(name).into_iter().flat_map(move |rings| {
            let coarse = group > rings.fine.len() && !rings.coarse.is_empty();
            let (fine, closed) = if coarse {
                (0, group.saturating_sub(open).div_ceil(factor))
            } else {
                (group, 0)
            };
            rings
                .fine
                .iter()
                .rev()
                .take(fine)
                .chain(rings.partial.iter().filter(move |_| coarse))
                .chain(rings.coarse.iter().rev().take(closed))
        })
    }

    /// Merges the last `group` fine windows of a histogram series into
    /// one [`HistogramSnapshot`] — the windowed-quantile primitive the
    /// SLO tracker evaluates burn rates on. Spans past the fine ring's
    /// reach read the coarse ring (see [`reach`](Self::reach)). Returns
    /// an empty snapshot for unknown or non-histogram series.
    #[must_use]
    pub fn merged_histogram(&self, name: &str, group: usize) -> HistogramSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut out = HistogramSnapshot::empty();
        for w in self.span(&inner, name, group) {
            if let WindowValue::Histogram(Some(b)) = w {
                for (o, d) in out.buckets.iter_mut().zip(b.iter()) {
                    *o = o.saturating_add(*d);
                }
            }
        }
        out
    }

    /// Sums the last `group` fine windows of a counter series — the
    /// windowed-rate primitive. Spans past the fine ring's reach read
    /// the coarse ring, as in [`merged_histogram`](Self::merged_histogram).
    /// Returns 0 for unknown or non-counter series.
    #[must_use]
    pub fn counter_delta(&self, name: &str, group: usize) -> u64 {
        let inner = self.inner.lock().unwrap();
        self.span(&inner, name, group)
            .map(|w| match w {
                WindowValue::Counter(d) => *d,
                _ => 0,
            })
            .fold(0, u64::saturating_add)
    }
}

/// Converts a merged window into its public point form.
fn point_of(w: &WindowValue, window_ms: u64) -> PointValue {
    match w {
        WindowValue::Counter(delta) => PointValue::Rate {
            delta: *delta,
            per_sec: *delta as f64 / (window_ms.max(1) as f64 / 1e3),
        },
        WindowValue::Gauge { min, max, last } => PointValue::Gauge {
            min: *min,
            max: *max,
            last: *last,
        },
        WindowValue::Histogram(b) => {
            let snap = match b {
                Some(b) => HistogramSnapshot { buckets: **b },
                None => HistogramSnapshot::empty(),
            };
            PointValue::Quantiles {
                count: snap.count(),
                p50_ns: snap.quantile(0.50),
                p95_ns: snap.quantile(0.95),
                p99_ns: snap.quantile(0.99),
                max_ns: snap.max_ns(),
            }
        }
    }
}

/// One aggregated point of a [`RollupSeries`].
#[derive(Debug, Clone, PartialEq)]
pub struct RollupPoint {
    /// End-of-window stamp (ms since the Unix epoch) of the last raw
    /// window this point merges.
    pub unix_ms: u64,
    /// The aggregated value.
    pub value: PointValue,
}

/// The aggregated value of one point, by series kind.
#[derive(Debug, Clone, PartialEq)]
pub enum PointValue {
    /// Counter delta over the point's span, plus the implied rate.
    Rate {
        /// Events within the span.
        delta: u64,
        /// Events per second over the nominal span.
        per_sec: f64,
    },
    /// Gauge extrema over the sampled roll instants in the span.
    Gauge {
        /// Minimum sampled value.
        min: i64,
        /// Maximum sampled value.
        max: i64,
        /// Most recent sampled value.
        last: i64,
    },
    /// Windowed latency quantiles recovered from merged buckets.
    Quantiles {
        /// Observations within the span.
        count: u64,
        /// Estimated p50 in nanoseconds.
        p50_ns: u64,
        /// Estimated p95 in nanoseconds.
        p95_ns: u64,
        /// Estimated p99 in nanoseconds.
        p99_ns: u64,
        /// Upper bound of the largest observation.
        max_ns: u64,
    },
}

/// A queried slice of one series' rollup history, oldest point first.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupSeries {
    /// Series name.
    pub name: String,
    /// Series kind.
    pub kind: SeriesKind,
    /// Nominal milliseconds each point spans.
    pub point_window_ms: u64,
    /// Aggregated points, oldest first.
    pub points: Vec<RollupPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn quick_config() -> RollupConfig {
        RollupConfig {
            window_ms: 100,
            fine_capacity: 8,
            coarse_factor: 4,
            coarse_capacity: 4,
        }
    }

    #[test]
    fn counter_windows_hold_deltas() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let ts = TimeSeries::new(quick_config());
        c.add(5);
        ts.roll_at(&reg.snapshot(), 1_000);
        c.add(2);
        ts.roll_at(&reg.snapshot(), 1_100);
        ts.roll_at(&reg.snapshot(), 1_200);
        let s = ts.query("c", 1, 10).expect("series exists");
        assert_eq!(s.kind, SeriesKind::Counter);
        let deltas: Vec<u64> = s
            .points
            .iter()
            .map(|p| match p.value {
                PointValue::Rate { delta, .. } => delta,
                _ => panic!("counter point"),
            })
            .collect();
        assert_eq!(deltas, [5, 2, 0]);
        assert_eq!(
            s.points.iter().map(|p| p.unix_ms).collect::<Vec<_>>(),
            [1_000, 1_100, 1_200]
        );
    }

    #[test]
    fn grouped_points_merge_windows() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let ts = TimeSeries::new(quick_config());
        for i in 0..6u64 {
            c.add(i + 1);
            ts.roll_at(&reg.snapshot(), 1_000 + i * 100);
        }
        let s = ts.query("c", 2, 10).expect("series exists");
        let deltas: Vec<u64> = s
            .points
            .iter()
            .map(|p| match p.value {
                PointValue::Rate { delta, .. } => delta,
                _ => panic!("counter point"),
            })
            .collect();
        // windows 1,2 | 3,4 | 5,6
        assert_eq!(deltas, [3, 7, 11]);
        assert_eq!(s.point_window_ms, 200);
    }

    #[test]
    fn huge_groups_saturate_instead_of_overflowing() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let ts = TimeSeries::new(quick_config());
        // Before any coarse window closes the fine ring answers; after,
        // the coarse ring does. Neither may overflow the point width.
        for rolls in [2u64, 6] {
            for i in 0..rolls {
                c.add(1);
                ts.roll_at(&reg.snapshot(), 10_000 * rolls + i * 100);
            }
            let s = ts.query("c", usize::MAX, 10).expect("series exists");
            assert_eq!(s.point_window_ms, u64::MAX);
            assert_eq!(s.points.len(), 1, "one point merges all history");
        }
    }

    #[test]
    fn fine_ring_wraps_at_capacity() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let ts = TimeSeries::new(quick_config());
        for i in 0..20u64 {
            c.add(i);
            ts.roll_at(&reg.snapshot(), i * 100);
        }
        let s = ts.query("c", 1, 100).expect("series exists");
        assert_eq!(s.points.len(), 8); // fine_capacity
        let deltas: Vec<u64> = s
            .points
            .iter()
            .map(|p| match p.value {
                PointValue::Rate { delta, .. } => delta,
                _ => panic!("counter point"),
            })
            .collect();
        assert_eq!(deltas, [12, 13, 14, 15, 16, 17, 18, 19]);
    }

    #[test]
    fn coarse_tier_merges_and_wraps() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let ts = TimeSeries::new(quick_config());
        for i in 0..24u64 {
            c.add(1);
            g.set(i as i64);
            ts.roll_at(&reg.snapshot(), i * 100);
        }
        // 24 rolls / coarse_factor 4 = 6 coarse windows; capacity 4.
        let s = ts.query("c", 4, 100).expect("series exists");
        assert_eq!(s.point_window_ms, 400);
        assert_eq!(s.points.len(), 4);
        for p in &s.points {
            assert!(matches!(p.value, PointValue::Rate { delta: 4, .. }));
        }
        let s = ts.query("g", 4, 100).expect("gauge series");
        let last = s.points.last().expect("points");
        assert_eq!(
            last.value,
            PointValue::Gauge {
                min: 20,
                max: 23,
                last: 23
            }
        );
    }

    #[test]
    fn histogram_windows_hold_bucket_deltas() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        let ts = TimeSeries::new(quick_config());
        h.record(10);
        h.record(10);
        ts.roll_at(&reg.snapshot(), 100);
        h.record(5_000);
        ts.roll_at(&reg.snapshot(), 200);
        let s = ts.query("h", 1, 10).expect("series exists");
        match &s.points[0].value {
            PointValue::Quantiles { count, p50_ns, .. } => {
                assert_eq!(*count, 2);
                assert!((8..=15).contains(p50_ns));
            }
            other => panic!("want quantiles, got {other:?}"),
        }
        match &s.points[1].value {
            PointValue::Quantiles { count, p99_ns, .. } => {
                assert_eq!(*count, 1);
                assert!((4096..=8191).contains(p99_ns), "p99={p99_ns}");
            }
            other => panic!("want quantiles, got {other:?}"),
        }
        let merged = ts.merged_histogram("h", 10);
        assert_eq!(merged.count(), 3);
    }

    #[test]
    fn window_sums_read_the_coarse_ring_past_the_fine_ring() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let ts = TimeSeries::new(quick_config());
        for i in 0..20u64 {
            c.add(i);
            ts.roll_at(&reg.snapshot(), i * 100);
        }
        // 8 fine windows hold 12..=19; three closed coarse windows of 4
        // hold 8..=19.
        assert_eq!(ts.counter_delta("c", 8), (12..20).sum::<u64>());
        assert_eq!(ts.counter_delta("c", 12), (8..20).sum::<u64>());
        // Two more rolls open a partial coarse window; the span rounds
        // up to whole coarse windows behind it.
        for i in 20..22u64 {
            c.add(i);
            ts.roll_at(&reg.snapshot(), i * 100);
        }
        assert_eq!(ts.counter_delta("c", 12), (8..22).sum::<u64>());
        assert_eq!(ts.reach(), 16, "4 coarse windows of 4");
    }

    #[test]
    fn late_registered_series_stay_back_aligned() {
        let reg = Registry::new();
        let a = reg.counter("a");
        let ts = TimeSeries::new(quick_config());
        a.add(1);
        ts.roll_at(&reg.snapshot(), 100);
        ts.roll_at(&reg.snapshot(), 200);
        let b = reg.counter("b");
        b.add(7);
        ts.roll_at(&reg.snapshot(), 300);
        let s = ts.query("b", 1, 10).expect("late series exists");
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].unix_ms, 300);
        assert!(matches!(
            s.points[0].value,
            PointValue::Rate { delta: 7, .. }
        ));
    }

    #[test]
    fn counter_delta_and_unknown_series() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let ts = TimeSeries::new(quick_config());
        c.add(3);
        ts.roll_at(&reg.snapshot(), 100);
        c.add(4);
        ts.roll_at(&reg.snapshot(), 200);
        assert_eq!(ts.counter_delta("c", 2), 7);
        assert_eq!(ts.counter_delta("c", 1), 4);
        assert_eq!(ts.counter_delta("nope", 5), 0);
        assert!(ts.query("nope", 1, 1).is_none());
        assert_eq!(ts.names(), ["c"]);
    }
}
