//! The `repro bench-ann` measurement harness: recall-vs-speed of the
//! LSH-forest scoring path against the exact blocked kernel, emitted as
//! the `BENCH_ann.json` artifact.
//!
//! The workload is the regime the ANN path exists for: a clustered
//! error-halo support (random cluster centers, each with a halo of
//! 1–3-flip members) at 64 bits under a *local* `Fixed(16)`
//! neighborhood. The paper's half-width default has no locality for LSH
//! to exploit — `Hammer`'s dispatch gate never engages the forest there
//! — so benchmarking it would measure nothing; this harness measures
//! the configuration the gate actually opens for.
//!
//! Rows with an affordable exact pass (`N ≤ 64K` here: the blocked
//! kernel's two passes visit about `N²` pairs) record wall-clock speedup, total
//! variation distance, and whether the reconstructed top outcome
//! agrees. Larger rows — up to the `N = 1M` reconstruct no exact sweep
//! can reach on this hardware — record ANN-only timings with recall
//! measured against a deterministic sample of query outcomes (the truth
//! scan per query is `O(N)`, so sampling keeps it affordable while
//! staying an exact computation for the sampled queries).

use std::collections::HashSet;
use std::time::Instant;

use hammer_core::{
    AnnIndex, AnnParams, AnnTuning, Hammer, HammerConfig, KernelTuning, NeighborhoodLimit,
};
use hammer_dist::{BitString, Distribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Width of the synthetic outcomes.
const N_BITS: usize = 64;

/// The local neighborhood cutoff: `4 · MAX_D ≤ N_BITS` opens the
/// dispatch gate.
const MAX_D: usize = 16;

/// Distinct outcomes per error cluster (one center + its halo).
const CLUSTER: usize = 16;

/// Largest support whose recall is measured over *every* outcome; above
/// it a deterministic sample of this many queries is used.
const FULL_RECALL_CAP: usize = 16_384;
const SAMPLED_QUERIES: usize = 512;

/// One measured `(support size, tuning)` cell.
#[derive(Debug, Clone)]
pub struct AnnBenchRow {
    /// Distinct outcomes in the support.
    pub n: usize,
    /// Forest shape (resolved: `bits_per_hash` is never 0).
    pub trees: usize,
    /// Bits sampled per hash after auto-sizing.
    pub bits_per_hash: usize,
    /// Multi-probe radius.
    pub probe_radius: usize,
    /// Wall-clock seconds to build the forest alone.
    pub secs_build: f64,
    /// Wall-clock seconds of the full ANN reconstruction (forest build
    /// included — it is part of the path's cost).
    pub secs_ann: f64,
    /// Wall-clock seconds of the exact reconstruction at the same
    /// thread count; `None` when the exact sweep is unaffordable.
    pub secs_exact: Option<f64>,
    /// In-range pair-mass recall vs the exact truth: of the probability
    /// mass the exact kernel gathers across in-range pairs of the
    /// measured queries, the fraction the forest surfaced.
    pub recall: f64,
    /// Query outcomes the recall was measured over (= `n` when exact).
    pub recall_queries: usize,
    /// Total variation distance between the ANN and exact
    /// reconstructions, when the exact one was run.
    pub tvd_vs_exact: Option<f64>,
    /// Whether both reconstructions agree on the most probable outcome.
    pub top1_matches: Option<bool>,
}

impl AnnBenchRow {
    /// Wall-clock speedup of the ANN path over the exact kernel.
    #[must_use]
    pub fn speedup_vs_exact(&self) -> Option<f64> {
        self.secs_exact.map(|e| e / self.secs_ann)
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct AnnBenchReport {
    /// Worker threads (the library's own default policy).
    pub threads: usize,
    /// True when run with `--quick` (CI smoke: one small row).
    pub quick: bool,
    /// Measured cells: the size ladder at default knobs first, then the
    /// knob sweep at the crossover-scale support.
    pub rows: Vec<AnnBenchRow>,
}

/// A clustered error-halo support with exactly `n` distinct outcomes:
/// `n / CLUSTER` random centers, each with `CLUSTER - 1` halo members
/// at 1–3 bit flips.
fn clustered(n: usize, rng: &mut StdRng) -> Distribution {
    let mut seen = HashSet::with_capacity(n);
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let center: u64 = rng.gen();
        if seen.insert(center) {
            pairs.push((BitString::from_u128(u128::from(center), N_BITS), 4.0));
        }
        let mut members = 1;
        while members < CLUSTER && pairs.len() < n {
            let mut member = center;
            for _ in 0..rng.gen_range(1..=3) {
                member ^= 1u64 << rng.gen_range(0..N_BITS);
            }
            if seen.insert(member) {
                pairs.push((BitString::from_u128(u128::from(member), N_BITS), 1.0));
                members += 1;
            }
        }
    }
    Distribution::from_probs(N_BITS, pairs).expect("positive weights")
}

/// The benchmark's Hammer configuration: local neighborhood, given ANN
/// tuning.
fn config(ann: AnnTuning) -> HammerConfig {
    HammerConfig {
        neighborhood: NeighborhoodLimit::Fixed(MAX_D),
        kernel: KernelTuning {
            ann,
            ..KernelTuning::default()
        },
        ..HammerConfig::paper()
    }
}

/// ANN tuning for the bench: default knobs, crossover low enough that
/// every measured support takes the ANN path.
fn bench_tuning() -> AnnTuning {
    AnnTuning {
        crossover: 4096,
        ..AnnTuning::default()
    }
}

/// In-range pair-mass recall over the given query outcomes: exact truth
/// per query (an `O(N)` scan), forest candidates via `range_query`.
fn measure_recall(index: &AnnIndex, d: &Distribution, queries: &[usize]) -> f64 {
    let (keys, probs) = (d.keys(), d.probs());
    let (mut found, mut truth) = (0.0f64, 0.0f64);
    for &i in queries {
        for &(id, _) in &index.range_query(keys[i], d.keys_hi()[i], MAX_D) {
            found += probs[id as usize];
        }
        let xi = keys[i];
        for (j, &kj) in keys.iter().enumerate() {
            if ((xi ^ kj).count_ones() as usize) <= MAX_D {
                truth += probs[j];
            }
        }
    }
    if truth > 0.0 {
        found / truth
    } else {
        1.0
    }
}

/// Every index at or below [`FULL_RECALL_CAP`], a deterministic stride
/// sample of [`SAMPLED_QUERIES`] otherwise.
fn query_sample(n: usize) -> Vec<usize> {
    if n <= FULL_RECALL_CAP {
        (0..n).collect()
    } else {
        (0..n)
            .step_by(n / SAMPLED_QUERIES)
            .take(SAMPLED_QUERIES)
            .collect()
    }
}

/// Measures one `(support, tuning)` cell. `exact` carries the exact
/// reconstruction and its wall-clock seconds when affordable (computed
/// once per support and shared across the knob sweep).
fn run_case(
    d: &Distribution,
    tuning: AnnTuning,
    threads: usize,
    exact: Option<&(f64, Distribution)>,
) -> AnnBenchRow {
    let params = AnnParams::resolve(&tuning, d.len(), N_BITS);

    let start = Instant::now();
    let index = AnnIndex::build(d, &params, threads);
    let secs_build = start.elapsed().as_secs_f64();

    let queries = query_sample(d.len());
    let recall = measure_recall(&index, d, &queries);

    let hammer = Hammer::with_config(config(tuning)).with_threads(threads);
    let start = Instant::now();
    let approx = hammer.reconstruct(d);
    let secs_ann = start.elapsed().as_secs_f64();

    let (tvd, top1) = exact.map_or((None, None), |(_, e)| {
        let tvd: f64 = e
            .iter()
            .map(|(x, p)| (p - approx.prob(x)).abs())
            .sum::<f64>()
            / 2.0;
        let top1 = approx.most_probable().map(|(x, _)| x) == e.most_probable().map(|(x, _)| x);
        (Some(tvd), Some(top1))
    });
    AnnBenchRow {
        n: d.len(),
        trees: params.trees,
        bits_per_hash: params.bits_per_hash,
        probe_radius: params.probe_radius,
        secs_build,
        secs_ann,
        secs_exact: exact.map(|(s, _)| *s),
        recall,
        recall_queries: queries.len(),
        tvd_vs_exact: tvd,
        top1_matches: top1,
    }
}

/// Runs the sweep.
///
/// Quick mode (CI smoke) measures a single 8K-outcome row with an exact
/// oracle. The full sweep climbs the size ladder at default knobs —
/// 16K and 64K against the exact kernel, then ANN-only 256K and the
/// 1M reconstruct row no exact `N²` sweep can reach on this hardware
/// — and closes with a knob sweep (trees × probe radius) at 64K, the
/// largest support with a shared exact baseline.
#[must_use]
pub fn run(quick: bool) -> AnnBenchReport {
    let threads = Hammer::new().threads();
    let mut rng = StdRng::seed_from_u64(0xA22);
    let mut rows = Vec::new();

    let exact_for = |d: &Distribution, threads: usize| {
        let hammer = Hammer::with_config(config(AnnTuning {
            enabled: false,
            ..AnnTuning::default()
        }))
        .with_threads(threads);
        let start = Instant::now();
        let out = hammer.reconstruct(d);
        (start.elapsed().as_secs_f64(), out)
    };
    let announce = |r: &AnnBenchRow| {
        eprintln!(
            "[bench-ann] N={} trees={} k={} r={}: build {:.3} s, ann {:.3} s, exact {}, \
             recall {:.4} ({} queries){}",
            r.n,
            r.trees,
            r.bits_per_hash,
            r.probe_radius,
            r.secs_build,
            r.secs_ann,
            r.secs_exact
                .map_or_else(|| "skipped".into(), |s| format!("{s:.3} s")),
            r.recall,
            r.recall_queries,
            r.speedup_vs_exact()
                .map_or_else(String::new, |s| format!(", speedup {s:.2}x")),
        );
    };

    if quick {
        let d = clustered(1 << 13, &mut rng);
        let exact = exact_for(&d, threads);
        let row = run_case(&d, bench_tuning(), threads, Some(&exact));
        announce(&row);
        rows.push(row);
        return AnnBenchReport {
            threads,
            quick,
            rows,
        };
    }

    // The size ladder at default knobs.
    for &n in &[1usize << 14, 1 << 16] {
        let d = clustered(n, &mut rng);
        let exact = exact_for(&d, threads);
        let row = run_case(&d, bench_tuning(), threads, Some(&exact));
        announce(&row);
        rows.push(row);
    }
    for &n in &[1usize << 18, 1 << 20] {
        let d = clustered(n, &mut rng);
        let row = run_case(&d, bench_tuning(), threads, None);
        announce(&row);
        rows.push(row);
    }

    // The recall-vs-speed knob sweep at 64K, sharing one exact baseline.
    let d = clustered(1 << 16, &mut rng);
    let exact = exact_for(&d, threads);
    for (trees, probe_radius) in [(4, 1), (16, 1), (8, 0), (8, 2)] {
        let tuning = AnnTuning {
            trees,
            probe_radius,
            ..bench_tuning()
        };
        let row = run_case(&d, tuning, threads, Some(&exact));
        announce(&row);
        rows.push(row);
    }

    AnnBenchReport {
        threads,
        quick,
        rows,
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |x| format!("{x:.6}"))
}

impl AnnBenchReport {
    /// The default-knob row at the 64K crossover scale (the headline
    /// recall/speedup cell), when present.
    #[must_use]
    pub fn headline(&self) -> Option<&AnnBenchRow> {
        self.rows.iter().find(|r| {
            r.n == 1 << 16 && r.trees == AnnTuning::default().trees && r.probe_radius == 1
        })
    }

    /// Serializes the sweep as the `BENCH_ann.json` artifact
    /// (hand-rolled: the workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"n\": {}, \"trees\": {}, \"bits_per_hash\": {}, \"probe_radius\": {}, \
                 \"secs_build\": {:.6}, \"secs_ann\": {:.6}, \"secs_exact\": {}, \
                 \"speedup_vs_exact\": {}, \"recall\": {:.6}, \"recall_queries\": {}, \
                 \"tvd_vs_exact\": {}, \"top1_matches\": {}, \"measured\": true}}",
                r.n,
                r.trees,
                r.bits_per_hash,
                r.probe_radius,
                r.secs_build,
                r.secs_ann,
                json_opt(r.secs_exact),
                json_opt(r.speedup_vs_exact()),
                r.recall,
                r.recall_queries,
                r.tvd_vs_exact
                    .map_or_else(|| "null".into(), |d| format!("{d:.3e}")),
                r.top1_matches
                    .map_or_else(|| "null".into(), |b| b.to_string()),
            ));
        }
        let headline = self.headline();
        format!(
            "{{\n  \"artifact\": \"BENCH_ann\",\n  \
             \"description\": \"LSH-forest approximate scoring vs the exact blocked kernel on a \
             clustered error-halo workload (64 bits, Fixed(16) neighborhood). Exact cells are \
             measured wall clock; recall is in-range pair-mass recall against the exact truth, \
             over every outcome at small N and a deterministic query sample above {FULL_RECALL_CAP}. \
             The n=1048576 row is ANN-only: the exact 2*N^2 sweep is out of reach at that size.\",\n  \
             \"n_bits\": {N_BITS},\n  \"max_d\": {MAX_D},\n  \"threads\": {},\n  \"quick\": {},\n  \
             \"rows\": [\n{}\n  ],\n  \
             \"recall_at_default_65536\": {},\n  \"speedup_vs_exact_at_65536\": {}\n}}\n",
            self.threads,
            self.quick,
            rows,
            json_opt(headline.map(|r| r.recall)),
            json_opt(headline.and_then(AnnBenchRow::speedup_vs_exact)),
        )
    }

    /// A human-readable summary table for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&[
            "unique outcomes",
            "trees",
            "k",
            "radius",
            "build (s)",
            "ann (s)",
            "exact (s)",
            "speedup",
            "recall",
        ]);
        for r in &self.rows {
            table.row_owned(vec![
                r.n.to_string(),
                r.trees.to_string(),
                r.bits_per_hash.to_string(),
                r.probe_radius.to_string(),
                fnum(r.secs_build, 3),
                fnum(r.secs_ann, 3),
                r.secs_exact.map_or_else(|| "-".into(), |s| fnum(s, 3)),
                r.speedup_vs_exact()
                    .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
                fnum(r.recall, 4),
            ]);
        }
        format!(
            "\n=== bench-ann: LSH forest vs exact kernel (threads = {}) ===\n{table}",
            self.threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_case_measures_and_serializes() {
        // Benchmark-scale timings belong to the CI `bench-ann --quick`
        // step; this drives the same measurement loop over a tiny
        // support to guard the plumbing.
        let mut rng = StdRng::seed_from_u64(7);
        let d = clustered(4096, &mut rng);
        assert_eq!(d.len(), 4096, "the generator hits the target size");
        let hammer = Hammer::with_config(config(AnnTuning {
            enabled: false,
            ..AnnTuning::default()
        }))
        .with_threads(2);
        let exact = (0.1, hammer.reconstruct(&d));
        let row = run_case(&d, bench_tuning(), 2, Some(&exact));
        assert!(row.recall >= 0.9, "recall {} on the tiny case", row.recall);
        assert_eq!(row.recall_queries, 4096);
        assert_eq!(row.top1_matches, Some(true));
        assert!(row.tvd_vs_exact.unwrap() < 0.05);

        let report = AnnBenchReport {
            threads: 2,
            quick: true,
            rows: vec![row],
        };
        let json = report.to_json();
        assert!(json.contains("\"artifact\": \"BENCH_ann\""));
        assert!(json.contains("\"recall\""));
        assert!(json.contains("\"measured\": true"));
        let text = report.render();
        assert!(text.contains("4096"));
    }

    #[test]
    fn query_sampling_kicks_in_above_the_cap() {
        assert_eq!(query_sample(100).len(), 100);
        let big = query_sample(FULL_RECALL_CAP * 8);
        assert_eq!(big.len(), SAMPLED_QUERIES);
        assert!(big.windows(2).all(|w| w[0] < w[1]));
    }
}
