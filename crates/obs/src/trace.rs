//! Request tracing: trace IDs, per-stage spans and the bounded ring of
//! captured slow-request traces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::metrics::Histogram;

/// Generates a fresh non-zero 64-bit trace ID.
///
/// SplitMix64 over wall-clock nanoseconds, the process ID and a
/// process-local sequence number — unique enough for correlating logs
/// across client, proxy and server without coordination.
pub fn gen_trace_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut z = t
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(std::process::id()) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        z
    }
}

/// One timed stage of a traced request, relative to the trace's start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Stage name (e.g. `decode`, `queue`, `compute`).
    pub stage: &'static str,
    /// Start offset from the trace's first instant, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

struct TraceInner {
    trace_id: u64,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A per-request trace context: a 64-bit trace ID plus the stage spans
/// accumulated while the request moves through the pipeline.
///
/// Clones share the same underlying trace, so a context can follow a
/// request across threads (connection thread → worker) and every span
/// lands in one tree.
#[derive(Clone)]
pub struct TraceCtx {
    inner: Arc<TraceInner>,
}

impl TraceCtx {
    /// Starts a trace identified by `trace_id`; the clock starts now.
    pub fn new(trace_id: u64) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                trace_id,
                t0: Instant::now(),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The trace ID this context carries.
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// Nanoseconds elapsed since the trace started.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Appends a span measured externally (e.g. queue wait computed
    /// from an enqueue timestamp).
    pub fn add_span(&self, stage: &'static str, start_ns: u64, dur_ns: u64) {
        self.inner.spans.lock().unwrap().push(Span {
            stage,
            start_ns,
            dur_ns,
        });
    }

    /// Opens a stage span that closes (and records itself) when the
    /// returned guard drops. When `hist` is given the duration is also
    /// fed to that per-stage histogram.
    pub fn span(&self, stage: &'static str, hist: Option<&Histogram>) -> SpanTimer {
        SpanTimer {
            ctx: self.clone(),
            stage,
            start_ns: self.elapsed_ns(),
            t0: Instant::now(),
            hist: hist.cloned(),
        }
    }

    /// Closes the trace into an immutable [`RequestTrace`], with spans
    /// ordered by start time.
    pub fn finish(&self, opcode: u8, outcome: u8) -> RequestTrace {
        let mut spans = self.inner.spans.lock().unwrap().clone();
        spans.sort_by_key(|s| s.start_ns);
        RequestTrace {
            trace_id: self.inner.trace_id,
            opcode,
            outcome,
            total_ns: self.elapsed_ns(),
            spans,
        }
    }
}

/// Guard returned by [`TraceCtx::span`]; records the stage on drop.
pub struct SpanTimer {
    ctx: TraceCtx,
    stage: &'static str,
    start_ns: u64,
    t0: Instant,
    hist: Option<Histogram>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let dur_ns = self.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.ctx.add_span(self.stage, self.start_ns, dur_ns);
        if let Some(h) = &self.hist {
            h.record(dur_ns);
        }
    }
}

/// A finished trace: the complete span tree of one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestTrace {
    /// The 64-bit trace ID (client-stamped or server-assigned).
    pub trace_id: u64,
    /// Request opcode.
    pub opcode: u8,
    /// Reply opcode — how the request ended (distribution, busy,
    /// deadline-exceeded, …).
    pub outcome: u8,
    /// Total request wall time in nanoseconds.
    pub total_ns: u64,
    /// Stage spans ordered by start offset.
    pub spans: Vec<Span>,
}

/// A bounded ring of captured [`RequestTrace`]s; pushing past capacity
/// evicts the oldest entry.
pub struct TraceRing {
    cap: usize,
    inner: Mutex<VecDeque<RequestTrace>>,
}

impl TraceRing {
    /// An empty ring holding at most `cap` traces.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Captures a trace, evicting the oldest when full.
    pub fn push(&self, trace: RequestTrace) {
        let mut q = self.inner.lock().unwrap();
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(trace);
    }

    /// Number of captured traces currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every captured trace, oldest first.
    pub fn drain(&self) -> Vec<RequestTrace> {
        self.inner.lock().unwrap().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = gen_trace_id();
        let b = gen_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn spans_accumulate_and_sort_by_start() {
        let ctx = TraceCtx::new(7);
        ctx.add_span("late", 1_000_000_000, 5);
        {
            let _s = ctx.span("guard", None);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        ctx.add_span("early", 0, 10);
        let t = ctx.finish(0x02, 0x82);
        assert_eq!(t.trace_id, 7);
        assert_eq!(t.opcode, 0x02);
        assert_eq!(t.outcome, 0x82);
        let stages: Vec<_> = t.spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, ["early", "guard", "late"]);
        let guard = t.spans.iter().find(|s| s.stage == "guard").unwrap();
        assert!(guard.dur_ns >= 1_000_000, "dur={}", guard.dur_ns);
        assert!(t.total_ns >= guard.dur_ns);
    }

    #[test]
    fn span_guard_feeds_the_stage_histogram() {
        let h = Histogram::detached();
        let ctx = TraceCtx::new(1);
        drop(ctx.span("s", Some(&h)));
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn ring_is_bounded_and_drains_oldest_first() {
        let ring = TraceRing::new(3);
        for id in 1..=5u64 {
            ring.push(RequestTrace {
                trace_id: id,
                opcode: 0,
                outcome: 0,
                total_ns: 0,
                spans: Vec::new(),
            });
        }
        assert_eq!(ring.len(), 3);
        let drained = ring.drain();
        assert!(ring.is_empty());
        let ids: Vec<_> = drained.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [3, 4, 5]);
    }
}
