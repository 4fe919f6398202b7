//! The metrics registry: counters, gauges and log₂-bucket histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets; bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 covers `[0, 2)`), so 64 buckets span every
/// representable `u64` latency.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for a nanosecond value: `floor(log2(ns))`, with 0 and 1
/// both landing in bucket 0.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros()) as usize
}

/// A monotonically increasing event counter.
///
/// Handles are cheap `Arc` clones sharing one atomic cell; a counter
/// obtained from [`Registry::counter`] shows up in snapshots, while
/// [`Counter::detached`] makes a standalone cell for components built
/// outside a registry (unit tests, ad-hoc tools).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A standalone counter not registered anywhere.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depth, open connections, bytes
/// resident). Same handle semantics as [`Counter`].
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A standalone gauge not registered anywhere.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂-scale latency histogram.
///
/// [`record`](Histogram::record) is one relaxed atomic add into the
/// bucket for `floor(log2(ns))`; count and quantiles are recovered from
/// the bucket array at snapshot time, so the write path carries no
/// locks, no allocation and no floating point.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; HIST_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl Histogram {
    /// A standalone histogram not registered anywhere.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Records one observation of `ns` nanoseconds.
    ///
    /// No-op while [`crate::timing_enabled`] is off.
    #[inline]
    pub fn record(&self, ns: u64) {
        if !crate::timing_enabled() {
            return;
        }
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a timer that records its elapsed time into this
    /// histogram when dropped. The cheap way to instrument an entry
    /// point without touching its early returns.
    pub fn start(&self) -> HistTimer {
        HistTimer {
            hist: self.clone(),
            t0: Instant::now(),
        }
    }

    /// A consistent-enough copy of the bucket array (individual bucket
    /// reads are atomic; concurrent writers may land between reads,
    /// which quantile estimation tolerates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Records elapsed wall time into a [`Histogram`] on drop.
pub struct HistTimer {
    hist: Histogram,
    t0: Instant,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.hist.record(ns);
    }
}

/// Frozen bucket counts of a [`Histogram`], with quantile recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per log₂ bucket.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Inclusive `(lo, hi)` nanosecond bounds of bucket `i`: `[2^i,
    /// 2^(i+1) - 1]`, except that bucket 0 starts at 0 and bucket 63
    /// ends at `u64::MAX`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        };
        (lo, hi)
    }

    /// An all-zero snapshot (useful when decoding wire payloads).
    pub fn empty() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated quantile `q` (0.0–1.0) in nanoseconds.
    ///
    /// Finds the bucket holding the sample of rank
    /// `round(q * (count - 1))` and interpolates linearly inside it, so
    /// the estimate always lands within the power-of-two bucket that
    /// contains the exact order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((n - 1) as f64 * q).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c > target {
                let (lo, hi) = Self::bucket_bounds(i);
                let pos = (target - cum) as f64 + 0.5;
                let width = (hi - lo) as f64;
                let est = lo as f64 + width * (pos / c as f64);
                return (est as u64).clamp(lo, hi);
            }
            cum += c;
        }
        // Unreachable with a consistent snapshot; be conservative.
        Self::bucket_bounds(HIST_BUCKETS - 1).1
    }

    /// Upper bound on the largest recorded value: the inclusive top of
    /// the highest non-empty bucket (within 2× of the true maximum).
    pub fn max_ns(&self) -> u64 {
        for i in (0..HIST_BUCKETS).rev() {
            if self.buckets[i] != 0 {
                return Self::bucket_bounds(i).1;
            }
        }
        0
    }
}

/// The value carried by one registered series in a snapshot.
// Snapshots are read-path-only values built a handful at a time; the
// 512-byte inline bucket array beats a per-histogram allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram bucket counts.
    Histogram(HistogramSnapshot),
}

/// One named series in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Registered series name (e.g. `serve.stage.decode_ns`).
    pub name: String,
    /// The captured value.
    pub value: SeriesValue,
}

/// A point-in-time capture of every series in a [`Registry`],
/// sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All captured series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Looks a series up by name.
    pub fn get(&self, name: &str) -> Option<&SeriesValue> {
        self.series
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.series[i].value)
    }

    /// Counter value by name, if registered as a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SeriesValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name, if registered as a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            SeriesValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram snapshot by name, if registered as a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            SeriesValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Appends `other`'s series, keeping the result sorted. On a name
    /// collision the series already present wins.
    pub fn merge(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        for s in other.series {
            if self.get(&s.name).is_none() {
                self.series.push(s);
            }
        }
        self.series.sort_by(|a, b| a.name.cmp(&b.name));
        self
    }
}

enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics with get-or-register semantics.
///
/// Registries are instances, not process globals: each server owns one
/// so tests can boot several servers in one process and assert exact
/// per-server counts. Process-wide compute-tier metrics (pool queue
/// wait, kernel/ANN/sim entry timings) live on [`Registry::global`].
#[derive(Default)]
pub struct Registry {
    series: Mutex<BTreeMap<String, Series>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry used by the compute tier
    /// (`hammer-pool`, `hammer-core`, `hammer-sim`).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different series type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.series.lock().unwrap();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Series::Counter(Counter::detached()))
        {
            Series::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered as a different type"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different series type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.series.lock().unwrap();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Series::Gauge(Gauge::detached()))
        {
            Series::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered as a different type"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different series type.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.series.lock().unwrap();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Series::Histogram(Histogram::detached()))
        {
            Series::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered as a different type"),
        }
    }

    /// Captures every registered series. Writers are never blocked:
    /// the registry lock only guards the name table, and each value is
    /// read with relaxed atomic loads.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.series.lock().unwrap();
        MetricsSnapshot {
            series: map
                .iter()
                .map(|(name, s)| SeriesSnapshot {
                    name: name.clone(),
                    value: match s {
                        Series::Counter(c) => SeriesValue::Counter(c.get()),
                        Series::Gauge(g) => SeriesValue::Gauge(g.get()),
                        Series::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("g");
        g.set(5);
        reg.gauge("g").add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_collision_panics() {
        let reg = Registry::new();
        let _ = reg.counter("name");
        let _ = reg.histogram("name");
    }

    #[test]
    fn bucket_math_covers_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
            assert!(lo <= hi);
            if i > 0 {
                assert_eq!(bucket_of(lo), i);
            }
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let h = Histogram::detached();
        for ns in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            h.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10);
        let p50 = snap.quantile(0.5);
        assert!((8..=15).contains(&p50), "p50={p50}");
        let p99 = snap.quantile(0.99);
        assert!((4096..=8191).contains(&p99), "p99={p99}");
        assert!((4096..=8191).contains(&snap.max_ns()));
    }

    #[test]
    fn disabled_timing_gates_histograms_but_not_counters() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        crate::set_timing_enabled(false);
        c.inc();
        h.record(100);
        crate::set_timing_enabled(true);
        h.record(100);
        assert_eq!(c.get(), 1);
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn snapshot_merge_prefers_self_and_stays_sorted() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("z").add(1);
        a.counter("dup").add(10);
        b.counter("a").add(2);
        b.counter("dup").add(20);
        let merged = a.snapshot().merge(b.snapshot());
        let names: Vec<_> = merged.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "dup", "z"]);
        assert_eq!(merged.counter("dup"), Some(10));
    }
}
