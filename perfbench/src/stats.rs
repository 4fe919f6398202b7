//! Metric arithmetic: percentiles that respect their sample count,
//! fidelity gains, reply classification and histogram deltas.

use hammer_dist::stats::geometric_mean;
use hammer_dist::{metrics, BitString, Distribution};
use hammer_obs::{HistogramSnapshot, MetricsSnapshot};
use hammer_serve::{Reply, WireError};

/// Samples a percentile above the median must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// One percentile read from a sample, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample value at the percentile.
    pub value: f64,
    /// The quantile actually read (at most the one asked for).
    pub q: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The `q`-quantile of `values` by nearest rank, lowered where needed
/// so that at least [`TAIL_SAMPLES`] samples lie beyond it, but never
/// below the median. `None` on an empty sample.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<Pct> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let median = (n - 1) / 2;
    let idx = wanted
        .min(n.saturating_sub(TAIL_SAMPLES + 1))
        .max(median.min(wanted));
    Some(Pct {
        value: sorted[idx],
        q: (idx + 1) as f64 / n as f64,
        samples: n,
    })
}

/// The middle value (lower median); `NaN` on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(f64::NAN, |p| p.value)
}

/// Geometric-mean PST and IST gains, `out / in`, against each input's
/// planted correct outcomes.
#[must_use]
pub fn fidelity_gains(cases: &[(&Distribution, &Distribution, &[BitString])]) -> (f64, f64) {
    let ratio = |f: fn(&Distribution, &[BitString]) -> f64| {
        let r: Vec<f64> = cases
            .iter()
            .map(|(input, out, answers)| f(out, answers) / f(input, answers))
            .collect();
        geometric_mean(&r).unwrap_or(f64::NAN)
    };
    (ratio(metrics::pst), ratio(metrics::ist))
}

/// Whether an RPC outcome is a served distribution. `Busy`, `Error`,
/// `DeadlineExceeded`, `ShuttingDown`, a degraded approximate answer and
/// every transport error count as failed.
#[must_use]
pub fn rpc_succeeded(outcome: &Result<Reply, WireError>) -> bool {
    matches!(outcome, Ok(Reply::Distribution(_)))
}

/// Bucket-wise `after − before` of one histogram series (empty when the
/// series is absent).
#[must_use]
pub fn hist_delta(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::empty();
    if let Some(a) = after.histogram(name) {
        out.buckets = a.buckets;
    }
    if let Some(b) = before.histogram(name) {
        for (o, &v) in out.buckets.iter_mut().zip(&b.buckets) {
            *o = o.saturating_sub(v);
        }
    }
    out
}

/// `after − before` of one counter series (0 when absent).
#[must_use]
pub fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count_and_leaves_ten_beyond() {
        for n in 1..=2500usize {
            let values: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let p = percentile(&values, 0.99).expect("non-empty");
            assert_eq!(p.samples, n);
            let idx = p.value as usize;
            let beyond = n - 1 - idx;
            let median = (n - 1) / 2;
            assert!(beyond >= TAIL_SAMPLES || idx == median, "n={n}: idx {idx}");
            assert!(idx >= median, "n={n}: below the median");
            assert!((p.q - (idx + 1) as f64 / n as f64).abs() < 1e-12);
        }
        // Enough samples: the true p99 by nearest rank.
        let values: Vec<f64> = (1..=3000).map(f64::from).collect();
        let p = percentile(&values, 0.99).expect("non-empty");
        assert_eq!((p.value, p.q), (2970.0, 0.99));
        assert_eq!(percentile(&values, 0.5).expect("non-empty").value, 1500.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn gains_match_hand_computed_metrics() {
        let bs = |s: &str| BitString::parse(s).expect("valid");
        let answer = [bs("111")];
        let input =
            Distribution::from_probs(3, [(bs("111"), 0.2), (bs("000"), 0.5), (bs("110"), 0.3)])
                .expect("valid");
        let out =
            Distribution::from_probs(3, [(bs("111"), 0.6), (bs("000"), 0.1), (bs("110"), 0.3)])
                .expect("valid");
        let (pst, ist) = fidelity_gains(&[(&input, &out, &answer)]);
        assert!((pst - 0.6 / 0.2).abs() < 1e-12);
        assert!((ist - (0.6 / 0.3) / (0.2 / 0.5)).abs() < 1e-12);
        // Two cases combine by geometric mean: √(3 · 1) for PST.
        let (pst2, _) = fidelity_gains(&[(&input, &out, &answer), (&input, &input, &answer)]);
        assert!((pst2 - 3f64.sqrt()).abs() < 1e-12);
        assert!(
            (pst2 - metrics::pst(&out, &answer).sqrt() / metrics::pst(&input, &answer).sqrt())
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn busy_and_error_replies_count_as_failed() {
        let d = Distribution::uniform(2);
        assert!(rpc_succeeded(&Ok(Reply::Distribution(d.clone()))));
        assert!(!rpc_succeeded(&Ok(Reply::Busy)));
        assert!(!rpc_succeeded(&Ok(Reply::Error("boom".into()))));
        assert!(!rpc_succeeded(&Ok(Reply::DeadlineExceeded)));
        assert!(!rpc_succeeded(&Ok(Reply::ApproxDistribution(d))));
        assert!(!rpc_succeeded(&Err(WireError::Busy)));
    }

    #[test]
    fn histogram_deltas_subtract_bucketwise() {
        let reg = hammer_obs::Registry::new();
        let h = reg.histogram("x_ns");
        h.record(100);
        let before = reg.snapshot();
        h.record(100);
        h.record(5000);
        let after = reg.snapshot();
        let d = hist_delta(&after, &before, "x_ns");
        assert_eq!(d.count(), 2);
        assert_eq!(hist_delta(&after, &before, "absent").count(), 0);
        reg.counter("c").add(3);
        assert_eq!(counter_delta(&reg.snapshot(), &before, "c"), 3);
    }
}
