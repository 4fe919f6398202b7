//! Ablation studies over HAMMER's design choices (DESIGN.md §5).
//!
//! Each ablation reruns a fixed BV workload under configuration variants
//! and reports the geometric-mean PST improvement, isolating how much
//! each ingredient of Algorithm 1 contributes.

use std::fmt::Write as _;

use hammer_core::{FilterRule, Hammer, HammerConfig, NeighborhoodLimit, WeightScheme};
use hammer_dist::{metrics, stats, Distribution};
use hammer_sim::ReadoutMitigator;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::datasets::{ibm_bv_suite, BvInstance};
use crate::pipeline::run_bv;
use crate::report::{fnum, section, Table};

/// The shared workload: every suite instance's baseline distribution,
/// paired with its correct answer.
fn workload(quick: bool) -> Vec<(BvInstance, Distribution)> {
    let suite = ibm_bv_suite(quick);
    let trials = if quick { 2048 } else { 8192 };
    suite
        .into_iter()
        .map(|inst| {
            let device = inst.backend.device(inst.bench.num_qubits());
            let mut rng = StdRng::seed_from_u64(0xAB1A ^ inst.bench.key().as_u64().rotate_left(17));
            let dist = run_bv(&inst.bench, &device, trials, &mut rng).expect("BV pipeline");
            (inst, dist)
        })
        .collect()
}

/// Geometric-mean PST improvement of a configuration over the baseline
/// distributions.
fn gmean_pst_gain(work: &[(BvInstance, Distribution)], config: HammerConfig) -> f64 {
    let hammer = Hammer::with_config(config);
    let gains: Vec<f64> = work
        .iter()
        .map(|(inst, dist)| {
            let key = [inst.bench.key()];
            let after = hammer.reconstruct(dist);
            metrics::pst(&after, &key) / metrics::pst(dist, &key).max(1e-12)
        })
        .collect();
    stats::geometric_mean(&gains).expect("non-empty workload")
}

/// Ablation 1: the neighborhood cutoff `d < n/2`.
#[must_use]
pub fn neighborhood(quick: bool) -> String {
    let mut out = section(
        "ablation-neighborhood",
        "Neighborhood cutoff: d < n/2 (paper) vs fixed vs unbounded",
        "§4.2 predicts tiny neighborhoods miss multi-bit errors while \
         unbounded ones dilute the score toward uniformity",
    );
    let work = workload(quick);
    let mut table = Table::new(&["neighborhood limit", "gmean PST gain"]);
    for (name, limit) in [
        ("d < n/2 (paper)", NeighborhoodLimit::HalfWidth),
        ("d < 2", NeighborhoodLimit::Fixed(2)),
        ("d < 3", NeighborhoodLimit::Fixed(3)),
        ("unbounded", NeighborhoodLimit::Unbounded),
    ] {
        let cfg = HammerConfig {
            neighborhood: limit,
            ..HammerConfig::paper()
        };
        table.row_owned(vec![name.into(), fnum(gmean_pst_gain(&work, cfg), 3)]);
    }
    let _ = write!(out, "{table}");
    out
}

/// Ablation 2: the weight scheme.
#[must_use]
pub fn weights(quick: bool) -> String {
    let mut out = section(
        "ablation-weights",
        "Weight scheme: inverse average CHS (paper) vs variants",
        "inverting the measured average CHS should beat uniform weights and \
         the literal Algorithm-1 (summed) reading, which degenerates to \
         P_out proportional to P_in^2",
    );
    let work = workload(quick);
    let mut table = Table::new(&["weight scheme", "gmean PST gain"]);
    for (name, scheme) in [
        (
            "inverse average CHS (paper)",
            WeightScheme::InverseAverageChs,
        ),
        (
            "inverse summed CHS (Alg. 1 literal)",
            WeightScheme::InverseGlobalChs,
        ),
        ("uniform", WeightScheme::Uniform),
        (
            "inverse binomial (theoretical)",
            WeightScheme::InverseBinomial,
        ),
    ] {
        let cfg = HammerConfig {
            weights: scheme,
            ..HammerConfig::paper()
        };
        table.row_owned(vec![name.into(), fnum(gmean_pst_gain(&work, cfg), 3)]);
    }
    let _ = write!(out, "{table}");
    out
}

/// Ablation 3: the π filter.
#[must_use]
pub fn filter(quick: bool) -> String {
    let mut out = section(
        "ablation-filter",
        "Filter: credit only from lower-probability neighbors (paper) vs none",
        "§4.4: without the filter, low-probability strings free-ride on rich \
         neighborhoods and the correction weakens",
    );
    let work = workload(quick);
    let mut table = Table::new(&["filter", "gmean PST gain"]);
    for (name, rule) in [
        ("P(x) > P(y) (paper)", FilterRule::LowerProbabilityOnly),
        ("none", FilterRule::None),
    ] {
        let cfg = HammerConfig {
            filter: rule,
            ..HammerConfig::paper()
        };
        table.row_owned(vec![name.into(), fnum(gmean_pst_gain(&work, cfg), 3)]);
    }
    let _ = write!(out, "{table}");
    out
}

/// Ablation 4: composing HAMMER with readout mitigation.
#[must_use]
pub fn mitigation(quick: bool) -> String {
    let mut out = section(
        "ablation-mitigation",
        "Composition with readout mitigation (the Google-baseline pipeline)",
        "readout correction and HAMMER attack different error sources; the \
         composition should beat either alone",
    );
    let work = workload(quick);
    let hammer = Hammer::new();

    let mut gains: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (inst, dist) in &work {
        let key = [inst.bench.key()];
        let base = metrics::pst(dist, &key).max(1e-12);
        // NOTE: mitigation here runs on the logical (data-register)
        // distribution with the data qubits' calibrations.
        let device = inst.backend.device(inst.bench.num_qubits());
        let cals: Vec<_> = (0..inst.bench.num_data_qubits())
            .map(|q| device.noise().readout(q))
            .collect();
        let mitigator = ReadoutMitigator::new(cals);
        let mitigated = mitigator.mitigate(dist).expect("widths match");
        gains[0].push(metrics::pst(&mitigated, &key) / base);
        gains[1].push(metrics::pst(&hammer.reconstruct(dist), &key) / base);
        gains[2].push(metrics::pst(&hammer.reconstruct(&mitigated), &key) / base);
    }
    let mut table = Table::new(&["pipeline", "gmean PST gain"]);
    for (name, g) in [
        ("readout mitigation only", &gains[0]),
        ("HAMMER only", &gains[1]),
        ("mitigation -> HAMMER", &gains[2]),
    ] {
        table.row_owned(vec![
            name.into(),
            fnum(stats::geometric_mean(g).expect("non-empty"), 3),
        ]);
    }
    let _ = write!(out, "{table}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_ablation_quick_shows_paper_config_wins_or_ties() {
        let r = filter(true);
        assert!(r.contains("paper"));
        assert!(r.contains("none"));
    }
}
