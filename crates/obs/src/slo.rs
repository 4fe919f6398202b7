//! SLO declarations and multi-window burn-rate evaluation.
//!
//! An [`SloSpec`] declares either a **latency** objective (a fraction
//! of observations in a histogram series must finish under a
//! threshold) or an **availability** objective (a bad-event counter
//! must stay under a fraction of a total counter). A [`SloTracker`]
//! evaluates each spec against the rollup rings every window using the
//! standard two-window burn-rate rule: the *burn rate* is the fraction
//! of the error budget consumed per unit time (1.0 = exactly on
//! budget), and an alert fires only when **both** a fast window (~1/60
//! of the SLO window) and a slow window (~1/6) burn hot — the fast
//! window gives sub-minute detection, the slow window keeps a brief
//! blip from paging.
//!
//! Windows longer than the history rolled so far are evaluated over
//! whatever windows exist, so a hard 100% violation fires within two
//! rollup windows of appearing — the property the serving tier's
//! chaos drill asserts. Windows longer than the fine ring are read
//! from the coarse ring, so a 4 h objective's 40 min slow window sees
//! all 40 minutes, not the fine ring's last 15.

use crate::events::EventLog;
use crate::metrics::{HistogramSnapshot, Registry};
use crate::rollup::TimeSeries;

/// Burn-rate threshold for the fast/slow pair — the classic
/// page-worthy rate (2% of a 30-day budget in one hour scales to 14.4).
/// The server's alert and `repro top`'s FIRING mark both use it.
pub const DEFAULT_BURN_THRESHOLD: f64 = 14.4;

/// What an SLO measures.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `target` of observations in `series` (a histogram) must be
    /// `< threshold_ns`.
    Latency {
        /// Histogram series name (e.g. `serve.request_ns`).
        series: String,
        /// Good/bad boundary in nanoseconds.
        threshold_ns: u64,
    },
    /// `bad / total` (two counters) must stay `<= 1 - target`.
    Availability {
        /// Counter of bad events (e.g. `serve.replies.failed`).
        bad: String,
        /// Counter of all events (e.g. `serve.replies.total`).
        total: String,
    },
}

/// One declared objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Short name used in alerts and gauge series
    /// (`serve.slo.<name>.burn_rate`).
    pub name: String,
    /// What is measured.
    pub objective: Objective,
    /// Good fraction required, in `(0, 1)` (e.g. `0.99`).
    pub target: f64,
    /// SLO window in seconds (e.g. 3600 for "over 1 h").
    pub window_secs: u64,
}

impl SloSpec {
    /// Parses the CLI/colon declaration format:
    ///
    /// * `latency:NAME:SERIES:THRESHOLD:TARGET%:WINDOW`
    ///   (e.g. `latency:reconstruct:serve.stage.compute_ns:5ms:99%:1h`)
    /// * `avail:NAME:BAD:TOTAL:TARGET%:WINDOW`
    ///   (e.g. `avail:replies:serve.replies.failed:serve.replies.total:99.9%:1h`)
    ///
    /// Durations take `ns`/`us`/`ms`/`s`/`m`/`h` suffixes.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let err = |msg: &str| Err(format!("bad SLO `{s}`: {msg}"));
        match parts.as_slice() {
            ["latency", name, series, threshold, target, window] => Ok(SloSpec {
                name: (*name).to_owned(),
                objective: Objective::Latency {
                    series: (*series).to_owned(),
                    threshold_ns: parse_duration_ns(threshold)
                        .ok_or_else(|| format!("bad SLO `{s}`: bad threshold `{threshold}`"))?,
                },
                target: parse_target(target)
                    .ok_or_else(|| format!("bad SLO `{s}`: bad target `{target}`"))?,
                window_secs: parse_duration_ns(window)
                    .map(|ns| (ns / 1_000_000_000).max(1))
                    .ok_or_else(|| format!("bad SLO `{s}`: bad window `{window}`"))?,
            }),
            ["avail", name, bad, total, target, window] => Ok(SloSpec {
                name: (*name).to_owned(),
                objective: Objective::Availability {
                    bad: (*bad).to_owned(),
                    total: (*total).to_owned(),
                },
                target: parse_target(target)
                    .ok_or_else(|| format!("bad SLO `{s}`: bad target `{target}`"))?,
                window_secs: parse_duration_ns(window)
                    .map(|ns| (ns / 1_000_000_000).max(1))
                    .ok_or_else(|| format!("bad SLO `{s}`: bad window `{window}`"))?,
            }),
            [kind, ..] if *kind != "latency" && *kind != "avail" => {
                err("kind must be `latency` or `avail`")
            }
            _ => err("want latency:NAME:SERIES:THRESHOLD:TARGET%:WINDOW or avail:NAME:BAD:TOTAL:TARGET%:WINDOW"),
        }
    }
}

/// Parses `5ms`, `250us`, `1h`, `90s`, `500ns`, `10m` into nanoseconds.
/// A bare number is nanoseconds.
#[must_use]
pub fn parse_duration_ns(s: &str) -> Option<u64> {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit() && c != '.')?;
    let (num, unit) = s.split_at(split);
    let num: f64 = num.parse().ok()?;
    let scale: f64 = match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        "m" => 60e9,
        "h" => 3_600e9,
        _ => return None,
    };
    if num < 0.0 {
        return None;
    }
    Some((num * scale) as u64)
}

fn parse_target(s: &str) -> Option<f64> {
    let s = s.trim().strip_suffix('%')?;
    let pct: f64 = s.parse().ok()?;
    (pct > 0.0 && pct < 100.0).then_some(pct / 100.0)
}

/// Evaluated state of one SLO at one roll instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The spec's name.
    pub name: String,
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// Burn rate over the fast window (1.0 = on budget).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Bad-event fraction over the slow window (0–1).
    pub bad_fraction: f64,
    /// Fast window span in rollup windows actually evaluated.
    pub fast_windows: usize,
    /// Slow window span in rollup windows actually evaluated.
    pub slow_windows: usize,
}

struct TrackedSlo {
    spec: SloSpec,
    firing: bool,
    burn_gauge: crate::metrics::Gauge,
}

/// Evaluates declared SLOs against a [`TimeSeries`] every roll. See the
/// module docs for the burn-rate rule.
pub struct SloTracker {
    slos: Vec<TrackedSlo>,
    max_burn_gauge: crate::metrics::Gauge,
}

impl SloTracker {
    /// A tracker for `specs`, registering one
    /// `serve.slo.<name>.burn_rate` gauge per spec plus the aggregate
    /// `serve.slo.burn_rate` on `registry`. Gauges carry **milli-burn**
    /// (burn rate × 1000) since gauges are integral.
    #[must_use]
    pub fn new(specs: Vec<SloSpec>, registry: &Registry) -> Self {
        let slos = specs
            .into_iter()
            .map(|spec| TrackedSlo {
                burn_gauge: registry.gauge(&format!("serve.slo.{}.burn_rate", spec.name)),
                spec,
                firing: false,
            })
            .collect();
        Self {
            slos,
            max_burn_gauge: registry.gauge("serve.slo.burn_rate"),
        }
    }

    /// Whether any SLO was declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Evaluates every SLO against the rollup rings, updates the burn
    /// gauges, and emits firing/resolved transitions into `log`.
    /// Called by the roller after each [`TimeSeries::roll`].
    pub fn evaluate(&mut self, ts: &TimeSeries, log: &EventLog) -> Vec<SloStatus> {
        let window_ms = ts.config().window_ms.max(1);
        let reach = ts.reach().max(1);
        let mut max_burn = 0.0f64;
        let mut out = Vec::with_capacity(self.slos.len());
        for slo in &mut self.slos {
            // Nominal fast/slow spans in rollup windows, clamped to the
            // history the rings hold so a fresh violation is measurable
            // immediately (an empty window contributes nothing anyway)
            // and the reported spans are the ones evaluated.
            let slo_windows = ((slo.spec.window_secs * 1_000).div_ceil(window_ms) as usize).max(1);
            let fast = (slo_windows / 60).clamp(1, reach);
            let slow = (slo_windows / 6).clamp(1, reach);
            let fast_frac = bad_fraction(&slo.spec.objective, ts, fast);
            let slow_frac = bad_fraction(&slo.spec.objective, ts, slow);
            let budget = (1.0 - slo.spec.target).max(1e-9);
            let fast_burn = fast_frac / budget;
            let slow_burn = slow_frac / budget;
            let burn = fast_burn.min(slow_burn);
            let firing = burn >= DEFAULT_BURN_THRESHOLD;
            slo.burn_gauge.set((burn * 1_000.0) as i64);
            max_burn = max_burn.max(burn);
            if firing != slo.firing {
                slo.firing = firing;
                if firing {
                    log.warn("slo", "slo alert firing")
                        .field("slo", slo.spec.name.clone())
                        .field("burn_rate", format!("{burn:.1}"))
                        .field("bad_fraction", format!("{slow_frac:.4}"))
                        .field("threshold", format!("{DEFAULT_BURN_THRESHOLD:.1}"));
                } else {
                    log.info("slo", "slo alert resolved")
                        .field("slo", slo.spec.name.clone())
                        .field("burn_rate", format!("{burn:.1}"));
                }
            }
            out.push(SloStatus {
                name: slo.spec.name.clone(),
                firing,
                fast_burn,
                slow_burn,
                bad_fraction: slow_frac,
                fast_windows: fast,
                slow_windows: slow,
            });
        }
        self.max_burn_gauge.set((max_burn * 1_000.0) as i64);
        out
    }
}

/// Bad-event fraction of an objective over the last `group` fine
/// windows, read from the coarse ring past the fine ring's reach (0.0
/// when nothing was observed).
fn bad_fraction(objective: &Objective, ts: &TimeSeries, group: usize) -> f64 {
    match objective {
        Objective::Latency {
            series,
            threshold_ns,
        } => {
            let hist = ts.merged_histogram(series, group);
            let total = hist.count();
            if total == 0 {
                return 0.0;
            }
            let good = count_below(&hist, *threshold_ns);
            1.0 - good as f64 / total as f64
        }
        Objective::Availability { bad, total } => {
            let bad = ts.counter_delta(bad, group);
            let total = ts.counter_delta(total, group);
            if total == 0 {
                return 0.0;
            }
            (bad as f64 / total as f64).min(1.0)
        }
    }
}

/// Estimated observations strictly below `threshold_ns`, interpolating
/// within the bucket the threshold lands in.
fn count_below(hist: &HistogramSnapshot, threshold_ns: u64) -> u64 {
    let mut below = 0f64;
    for (i, &c) in hist.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
        if threshold_ns > hi {
            below += c as f64;
        } else if threshold_ns > lo {
            let width = (hi - lo + 1) as f64;
            below += c as f64 * ((threshold_ns - lo) as f64 / width);
        }
    }
    below.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Level;
    use crate::metrics::Registry;
    use crate::rollup::{RollupConfig, TimeSeries};

    fn quiet_log() -> EventLog {
        let log = EventLog::new(64);
        log.set_echo_level(None);
        log
    }

    fn quick_ts() -> TimeSeries {
        TimeSeries::new(RollupConfig {
            window_ms: 100,
            fine_capacity: 64,
            coarse_factor: 8,
            coarse_capacity: 8,
        })
    }

    #[test]
    fn parses_latency_and_availability_declarations() {
        let slo = SloSpec::parse("latency:reconstruct:serve.request_ns:5ms:99%:1h").unwrap();
        assert_eq!(slo.name, "reconstruct");
        assert_eq!(
            slo.objective,
            Objective::Latency {
                series: "serve.request_ns".to_owned(),
                threshold_ns: 5_000_000,
            }
        );
        assert!((slo.target - 0.99).abs() < 1e-12);
        assert_eq!(slo.window_secs, 3_600);
        let slo =
            SloSpec::parse("avail:replies:serve.replies.failed:serve.replies.total:99.9%:30m")
                .unwrap();
        assert_eq!(
            slo.objective,
            Objective::Availability {
                bad: "serve.replies.failed".to_owned(),
                total: "serve.replies.total".to_owned(),
            }
        );
        assert_eq!(slo.window_secs, 1_800);
        assert!(SloSpec::parse("latency:x:y:5ms:99%").is_err());
        assert!(SloSpec::parse("weird:x:y:5ms:99%:1h").is_err());
        assert!(SloSpec::parse("latency:x:y:5parsecs:99%:1h").is_err());
        assert!(SloSpec::parse("latency:x:y:5ms:110%:1h").is_err());
    }

    #[test]
    fn duration_suffixes_parse() {
        assert_eq!(parse_duration_ns("500ns"), Some(500));
        assert_eq!(parse_duration_ns("250us"), Some(250_000));
        assert_eq!(parse_duration_ns("5ms"), Some(5_000_000));
        assert_eq!(parse_duration_ns("1.5s"), Some(1_500_000_000));
        assert_eq!(parse_duration_ns("10m"), Some(600_000_000_000));
        assert_eq!(parse_duration_ns("1h"), Some(3_600_000_000_000));
        assert_eq!(parse_duration_ns("1wk"), None);
        assert_eq!(parse_duration_ns(""), None);
    }

    #[test]
    fn hard_latency_violation_fires_within_two_windows() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        let ts = quick_ts();
        let log = quiet_log();
        let spec = SloSpec::parse("latency:fast:lat:1ms:99%:1h").unwrap();
        let mut tracker = SloTracker::new(vec![spec], &reg);
        // Every observation blows the 1 ms threshold.
        for i in 0..2u64 {
            for _ in 0..50 {
                h.record(10_000_000);
            }
            ts.roll_at(&reg.snapshot(), 100 * (i + 1));
            let status = tracker.evaluate(&ts, &log);
            assert_eq!(status.len(), 1);
            if i >= 1 {
                assert!(status[0].firing, "not firing after window {i}: {status:?}");
            }
        }
        // 100% bad on a 1% budget = burn 100 ≥ 14.4.
        let firing_events = log.tail(10, Level::Warn);
        assert_eq!(firing_events.len(), 1);
        assert_eq!(firing_events[0].message, "slo alert firing");
        assert!(reg.snapshot().gauge("serve.slo.burn_rate").unwrap() > 14_400);
        // Recovery: all-good traffic ages the bad windows out of the
        // (clamped) fast window; keep rolling until it resolves.
        for i in 0..40u64 {
            for _ in 0..500 {
                h.record(1_000);
            }
            ts.roll_at(&reg.snapshot(), 1_000 + 100 * i);
            tracker.evaluate(&ts, &log);
        }
        let resolved: Vec<_> = log
            .tail(20, Level::Debug)
            .into_iter()
            .filter(|e| e.message == "slo alert resolved")
            .collect();
        assert_eq!(resolved.len(), 1, "alert never resolved");
    }

    #[test]
    fn availability_objective_burns_on_failed_replies() {
        let reg = Registry::new();
        let bad = reg.counter("bad");
        let total = reg.counter("total");
        let ts = quick_ts();
        let log = quiet_log();
        let spec = SloSpec::parse("avail:rep:bad:total:99%:1h").unwrap();
        let mut tracker = SloTracker::new(vec![spec], &reg);
        total.add(100);
        ts.roll_at(&reg.snapshot(), 100);
        let status = tracker.evaluate(&ts, &log);
        assert!(!status[0].firing);
        assert_eq!(status[0].bad_fraction, 0.0);
        bad.add(50);
        total.add(50);
        ts.roll_at(&reg.snapshot(), 200);
        let status = tracker.evaluate(&ts, &log);
        assert!(status[0].firing, "{status:?}");
        assert!(status[0].bad_fraction > 0.3);
    }

    #[test]
    fn good_traffic_never_fires() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        let ts = quick_ts();
        let log = quiet_log();
        let spec = SloSpec::parse("latency:fast:lat:1ms:99%:1h").unwrap();
        let mut tracker = SloTracker::new(vec![spec], &reg);
        for i in 0..10u64 {
            for _ in 0..100 {
                h.record(10_000); // 10 µs, well under 1 ms
            }
            ts.roll_at(&reg.snapshot(), 100 * (i + 1));
            let status = tracker.evaluate(&ts, &log);
            assert!(!status[0].firing, "{status:?}");
        }
        assert!(log.tail(10, Level::Warn).is_empty());
    }

    #[test]
    fn long_windows_read_the_coarse_ring_past_the_fine_ring() {
        // At the default 1 s windows the fine ring holds 900 windows;
        // a 4 h objective's slow window is 2,400 and its fast one 240.
        let status = |recent_bad: u64| {
            let reg = Registry::new();
            let h = reg.histogram("lat");
            let ts = TimeSeries::new(RollupConfig::default());
            let spec = SloSpec::parse("latency:long:lat:1ms:99%:4h").unwrap();
            let mut tracker = SloTracker::new(vec![spec], &reg);
            for i in 0..3_000u64 {
                // 2,000 windows all over the threshold, 760 all under,
                // then the last 240 with `recent_bad` of 10 over.
                let bad = match i {
                    0..2_000 => 10,
                    2_000..2_760 => 0,
                    _ => recent_bad,
                };
                for k in 0..10 {
                    h.record(if k < bad { 10_000_000 } else { 1_000 });
                }
                ts.roll_at(&reg.snapshot(), 1_000 * (i + 1));
            }
            tracker.evaluate(&ts, &quiet_log()).remove(0)
        };
        let healed = status(0);
        assert_eq!((healed.fast_windows, healed.slow_windows), (240, 2_400));
        // 1,400 of the slow window's 2,400 windows were all bad.
        let expected = 1_400.0 / 2_400.0;
        assert!((healed.bad_fraction - expected).abs() < 1e-3, "{healed:?}");
        assert!(!healed.firing, "the fast window is clean: {healed:?}");
        // 20% bad in the fast window burns at 20; the slow window,
        // read whole, burns at 60: both over 14.4.
        let burning = status(2);
        assert!(burning.firing, "{burning:?}");
        assert!(burning.slow_burn > 50.0, "{burning:?}");
    }

    #[test]
    fn count_below_interpolates_within_bucket() {
        let h = crate::metrics::Histogram::detached();
        for _ in 0..100 {
            h.record(1_000);
        }
        let snap = h.snapshot();
        // Threshold far above the bucket: everything is below.
        assert_eq!(count_below(&snap, 1 << 20), 100);
        // Threshold far below: nothing is.
        assert_eq!(count_below(&snap, 10), 0);
        // Threshold inside bucket 9 ([512, 1023]): a strict subset.
        let mid = count_below(&snap, 512 + 256);
        assert!(mid > 0 && mid < 100, "mid={mid}");
    }
}
