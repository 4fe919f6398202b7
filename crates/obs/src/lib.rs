//! Lock-free observability primitives for the HAMMER serving and
//! compute tiers.
//!
//! Three layers, cheap enough to leave on in production:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) —
//!   atomic counters/gauges plus fixed-bucket log₂-scale latency
//!   histograms where [`Histogram::record`] is a single relaxed atomic
//!   add and p50/p95/p99/max are recovered from the buckets by
//!   interpolation. A registry can be snapshotted at any time without
//!   stopping writers.
//! * **Tracing** ([`TraceCtx`], [`Span`]) — a per-request context
//!   carrying a 64-bit trace ID (propagated on the wire by the serving
//!   protocol) that accumulates named stage spans; finished traces of
//!   slow or shed requests land in a bounded [`TraceRing`] for later
//!   dumping.
//! * **Time series** ([`TimeSeries`]) — fixed-capacity rings of
//!   per-window rollups (counter deltas, merged histogram buckets,
//!   gauge min/max) over every registered series, with a coarse tier
//!   extending retention beyond the fine ring.
//! * **Events** ([`EventLog`]) — a leveled, bounded ring of structured
//!   key=value events, trace-id correlated, replacing scattered
//!   `eprintln!`s.
//! * **SLOs** ([`SloTracker`]) — declared latency/availability
//!   objectives evaluated as fast/slow multi-window burn rates over the
//!   rollup rings, alerting into the event log.
//! * **A global kill switch** ([`set_timing_enabled`]) that gates the
//!   *timing* layers (histograms and spans). Counters and gauges are
//!   never gated: exact request accounting (`serve.requests` and the
//!   other serving counters) must not depend on an observability flag.
//!
//! The crate is std-only and dependency-free so every tier — including
//! the leaf `hammer-pool` crate — can link it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod metrics;
mod rollup;
mod slo;
mod trace;

pub use events::{format_human, Event, EventBuilder, EventLog, Level};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, SeriesSnapshot,
    SeriesValue, HIST_BUCKETS,
};
pub use rollup::{
    unix_ms_now, PointValue, RollupConfig, RollupPoint, RollupSeries, SeriesKind, TimeSeries,
};
pub use slo::{
    parse_duration_ns, Objective, SloSpec, SloStatus, SloTracker, DEFAULT_BURN_THRESHOLD,
};
pub use trace::{gen_trace_id, RequestTrace, Span, SpanTimer, TraceCtx, TraceRing};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global gate for the timing layers (histograms and spans).
///
/// Defaults to enabled. Flipping it off turns [`Histogram::record`]
/// and span creation into near-free no-ops; counters and gauges keep
/// counting regardless so wire-visible statistics stay exact.
static TIMING_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables histogram recording and span tracing process-wide.
pub fn set_timing_enabled(on: bool) {
    TIMING_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether histogram recording and span tracing are currently enabled.
#[inline]
pub fn timing_enabled() -> bool {
    TIMING_ENABLED.load(Ordering::Relaxed)
}
