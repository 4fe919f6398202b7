//! The `repro bench-kernel` measurement harness: sweeps the `O(N²)`
//! scoring kernel over support sizes and emits the `BENCH_kernel.json`
//! trajectory artifact.
//!
//! Table 3 of the paper extrapolates its 256K-unique row; this harness
//! exists to make that row a *measured* number, with a recorded speedup
//! of the blocked/branchless/work-stealing kernel over the PR 1 scalar
//! kernel at the same thread count.

use std::time::Instant;

use hammer_core::kernel::{self, reference};
use hammer_core::{FilterRule, Hammer, KernelTuning};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Width of the synthetic outcomes. 64 bits puts the `d < n/2` cutoff
/// exactly at the mode of the pair-distance distribution — the
/// worst case for the reference kernel's cutoff branch and therefore
/// the honest setting for the comparison.
const N_BITS: usize = 64;

/// Neighborhood bins, the paper's `d < n/2` rule at 64 bits.
const MAX_D: usize = 32;

/// One measured support size.
#[derive(Debug, Clone)]
pub struct KernelBenchRow {
    /// Unique outcomes in the support.
    pub n: usize,
    /// The full-pass-equivalent pair count `n²`: the ordered pairs one
    /// unfiltered scoring pass would visit. The π-suffix kernel visits
    /// fewer (about `n²/2` on distinct probabilities), so
    /// [`mpairs_per_sec`](Self::mpairs_per_sec) reads as `n²` work per
    /// second, comparable across kernels, not as pairs actually visited.
    pub pairs: u128,
    /// Wall-clock seconds of the PR 1 `scores_parallel` at
    /// [`KernelBenchReport::threads`] threads. `None` when skipped
    /// (quick mode caps the slow reference at smaller supports).
    pub secs_reference: Option<f64>,
    /// Wall-clock seconds of the blocked branchless serial kernel.
    pub secs_blocked_serial: f64,
    /// Wall-clock seconds of the work-stealing kernel at
    /// [`KernelBenchReport::threads`] threads.
    pub secs_parallel: f64,
    /// Largest absolute score difference vs the reference (when run).
    pub max_abs_diff: Option<f64>,
}

impl KernelBenchRow {
    /// Measured speedup of the work-stealing kernel over the reference
    /// at the same thread count, when the reference was run.
    #[must_use]
    pub fn speedup_vs_reference(&self) -> Option<f64> {
        self.secs_reference.map(|r| r / self.secs_parallel)
    }

    /// Full-pass-equivalent throughput of the new kernel: [`pairs`](Self::pairs)
    /// over its wall-clock time, in millions per second.
    #[must_use]
    pub fn mpairs_per_sec(&self) -> f64 {
        self.pairs as f64 / self.secs_parallel / 1e6
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Thread count used for *both* the reference and the new kernel.
    pub threads: usize,
    /// True when run with `--quick` (CI smoke: small sweep).
    pub quick: bool,
    /// One row per support size, ascending.
    pub rows: Vec<KernelBenchRow>,
}

fn synthetic_soa(n: usize, rng: &mut StdRng) -> (Vec<u64>, Vec<f64>) {
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    let mut probs = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.gen::<u64>();
        if seen.insert(k) {
            keys.push(k);
            probs.push(rng.gen::<f64>() + 1e-6);
        }
    }
    (keys, probs)
}

/// Runs the sweep. Quick mode covers {4K, 16K}; the full sweep covers
/// N ∈ {4K, 16K, 64K, 256K} with the reference kernel measured at every
/// size — including 256K — so every cell of the emitted artifact is a
/// measurement, not an extrapolation.
///
/// Every size is above the default 2048-entry parallel threshold, so
/// even the quick (CI smoke) sweep exercises the work-stealing
/// scheduler, not just the serial fallback.
#[must_use]
pub fn run(quick: bool) -> KernelBenchReport {
    // `Hammer`'s default worker policy (every core, minimum 2 so the
    // work-stealing path — not the serial fallback — is what the
    // artifact records). Taken from the library rather than recomputed,
    // so the recorded thread count can never drift from what
    // reconstruction actually uses.
    let threads = Hammer::new().threads();
    let sizes: &[usize] = if quick {
        &[1 << 12, 1 << 14]
    } else {
        &[1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    // In quick mode skip the O(N²) scalar reference beyond 16K so CI
    // smoke stays fast; the full run measures it everywhere.
    let reference_cap = if quick { 1 << 14 } else { usize::MAX };
    run_sizes(sizes, reference_cap, threads, quick)
}

/// The measurement loop behind [`run`], parameterized so tests can
/// sweep tiny supports without paying for benchmark-scale timings.
fn run_sizes(
    sizes: &[usize],
    reference_cap: usize,
    threads: usize,
    quick: bool,
) -> KernelBenchReport {
    let weights: Vec<f64> = (0..MAX_D).map(|d| 1.0 / (1.0 + d as f64)).collect();
    let filter = FilterRule::LowerProbabilityOnly;
    let tuning = KernelTuning::default();
    let mut rng = StdRng::seed_from_u64(0x4A11);
    let mut rows = Vec::new();
    for &n in sizes {
        let (keys, probs) = synthetic_soa(n, &mut rng);
        let entries: Vec<(u128, f64)> = keys
            .iter()
            .map(|&k| u128::from(k))
            .zip(probs.iter().copied())
            .collect();

        let start = Instant::now();
        let blocked = kernel::scores_parallel(&keys, &probs, &weights, filter, 1, &tuning);
        let secs_blocked_serial = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let parallel = kernel::scores_parallel(&keys, &probs, &weights, filter, threads, &tuning);
        let secs_parallel = start.elapsed().as_secs_f64();
        assert_eq!(parallel.len(), blocked.len());

        let (secs_reference, max_abs_diff) = if n <= reference_cap {
            let start = Instant::now();
            let oracle = reference::scores_parallel(&entries, &weights, filter, threads);
            let secs = start.elapsed().as_secs_f64();
            let diff = oracle
                .iter()
                .zip(&parallel)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            (Some(secs), Some(diff))
        } else {
            (None, None)
        };

        rows.push(KernelBenchRow {
            n,
            pairs: (n as u128) * (n as u128),
            secs_reference,
            secs_blocked_serial,
            secs_parallel,
            max_abs_diff,
        });
        eprintln!(
            "[bench-kernel] N={n}: reference {} s, blocked {:.3} s, parallel({threads}) {:.3} s{}",
            secs_reference.map_or_else(|| "skipped".into(), |s| format!("{s:.3}")),
            secs_blocked_serial,
            secs_parallel,
            rows.last()
                .unwrap()
                .speedup_vs_reference()
                .map_or_else(String::new, |s| format!(", speedup {s:.2}x")),
        );
    }
    KernelBenchReport {
        threads,
        quick,
        rows,
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |x| format!("{x:.6}"))
}

impl KernelBenchReport {
    /// The speedup at the issue's checkpoint size (N = 64K), when that
    /// row was measured.
    #[must_use]
    pub fn speedup_at_64k(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.n == 1 << 16)
            .and_then(KernelBenchRow::speedup_vs_reference)
    }

    /// Serializes the sweep as the `BENCH_kernel.json` artifact
    /// (hand-rolled: the workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"n\": {}, \"pairs\": {}, \"secs_reference_parallel\": {}, \
                 \"secs_blocked_serial\": {:.6}, \"secs_parallel\": {:.6}, \
                 \"speedup_vs_reference\": {}, \"mpairs_per_sec\": {:.3}, \
                 \"max_abs_diff_vs_reference\": {}, \"measured\": true}}",
                r.n,
                r.pairs,
                json_opt(r.secs_reference),
                r.secs_blocked_serial,
                r.secs_parallel,
                json_opt(r.speedup_vs_reference()),
                r.mpairs_per_sec(),
                r.max_abs_diff
                    .map_or_else(|| "null".into(), |d| format!("{d:.3e}")),
            ));
        }
        format!(
            "{{\n  \"artifact\": \"BENCH_kernel\",\n  \
             \"description\": \"O(N^2) scoring-kernel trajectory: PR 1 scalar reference vs \
             blocked/branchless/work-stealing kernel. Every timed cell is measured wall clock, \
             not extrapolated; Table 3's 256K-unique row is the n=262144 entry. pairs is the \
             full-pass-equivalent n^2 (the pi-suffix kernel visits about n^2/2 of them), and \
             mpairs_per_sec is pairs over the work-stealing time.\",\n  \
             \"n_bits\": {N_BITS},\n  \"max_d\": {MAX_D},\n  \"filter\": \"LowerProbabilityOnly\",\n  \
             \"threads\": {},\n  \"quick\": {},\n  \"rows\": [\n{}\n  ],\n  \
             \"speedup_vs_reference_at_65536\": {}\n}}\n",
            self.threads,
            self.quick,
            rows,
            json_opt(self.speedup_at_64k()),
        )
    }

    /// A human-readable summary table for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        use crate::report::{fnum, Table};
        let mut table = Table::new(&[
            "unique outcomes",
            "reference (s)",
            "blocked serial (s)",
            "work-stealing (s)",
            "speedup",
            "Mpairs/s",
        ]);
        for r in &self.rows {
            table.row_owned(vec![
                r.n.to_string(),
                r.secs_reference.map_or_else(|| "-".into(), |s| fnum(s, 3)),
                fnum(r.secs_blocked_serial, 3),
                fnum(r.secs_parallel, 3),
                r.speedup_vs_reference()
                    .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
                fnum(r.mpairs_per_sec(), 1),
            ]);
        }
        format!(
            "\n=== bench-kernel: O(N^2) scoring kernel sweep (threads = {}) ===\n{table}",
            self.threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_and_serializes() {
        // Benchmark-scale timings belong to the CI `bench-kernel
        // --quick` step; the unit test sweeps tiny supports through the
        // same loop to guard the measurement + serialization paths.
        let report = run_sizes(&[256, 512], 256, 2, true);
        assert_eq!(report.rows.len(), 2);
        let json = report.to_json();
        assert!(json.contains("\"artifact\": \"BENCH_kernel\""));
        assert!(json.contains("\"n\": 256"));
        // The capped row measures the reference (with a tight diff);
        // the row beyond the cap records null for it.
        assert!(report.rows[0].secs_reference.is_some());
        assert!(report.rows[0].max_abs_diff.unwrap() < 1e-9);
        assert!(report.rows[1].secs_reference.is_none());
        assert!(json.contains("\"secs_reference_parallel\": null"));
        // Render must not panic and must show every row.
        let text = report.render();
        assert!(text.contains("256") && text.contains("512"));
    }

    #[test]
    fn quick_sweep_sizes_cross_the_parallel_threshold() {
        // The CI smoke sweep must exercise the work-stealing scheduler,
        // not the serial fallback — pin the size list, not a run.
        let threshold = KernelTuning::default().parallel_threshold;
        for &n in &[1usize << 12, 1 << 14] {
            assert!(n >= threshold);
        }
    }
}
