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

use crate::report::{Artifact, Cell};

/// Width of the synthetic outcomes. 64 bits puts the `d < n/2` cutoff
/// exactly at the mode of the pair-distance distribution — the
/// worst case for the reference kernel's cutoff branch and therefore
/// the honest setting for the comparison.
const N_BITS: usize = 64;

/// Neighborhood bins, the paper's `d < n/2` rule at 64 bits.
const MAX_D: usize = 32;

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

/// The quick (CI smoke) sweep. Every size is above the default
/// 2048-entry parallel threshold, so even the smoke run exercises the
/// work-stealing scheduler, not just the serial fallback.
const QUICK_SIZES: [usize; 2] = [1 << 12, 1 << 14];

/// Runs the sweep. Quick mode covers {4K, 16K}; the full sweep
/// covers N ∈ {4K, 16K, 64K, 256K} with the reference kernel measured
/// at every size — including 256K — so every cell of the emitted
/// artifact is a measurement, not an extrapolation.
#[must_use]
pub fn run(quick: bool) -> Artifact {
    // `Hammer`'s default worker policy (every core, minimum 2 so the
    // work-stealing path — not the serial fallback — is what the
    // artifact records). Taken from the library rather than recomputed,
    // so the recorded thread count can never drift from what
    // reconstruction actually uses.
    let threads = Hammer::new().threads();
    let sizes: &[usize] = if quick {
        &QUICK_SIZES
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
fn run_sizes(sizes: &[usize], reference_cap: usize, threads: usize, quick: bool) -> Artifact {
    let mut artifact = Artifact::new(
        "BENCH_kernel",
        "O(N^2) scoring-kernel trajectory: scalar reference vs \
         blocked/branchless/work-stealing kernel. Every timed cell is measured wall clock, \
         not extrapolated; Table 3's 256K-unique row is the n=262144 entry. pairs is the \
         full-pass-equivalent n^2 (the pi-suffix kernel visits about n^2/2 of them), and \
         mpairs_per_sec is pairs over the work-stealing time.",
    );
    artifact
        .field("n_bits", N_BITS)
        .field("max_d", MAX_D)
        .field("filter", "LowerProbabilityOnly")
        .field("threads", threads)
        .field("quick", quick);
    let weights: Vec<f64> = (0..MAX_D).map(|d| 1.0 / (1.0 + d as f64)).collect();
    let filter = FilterRule::LowerProbabilityOnly;
    let tuning = KernelTuning::default();
    let mut rng = StdRng::seed_from_u64(0x4A11);
    let mut speedup_at_64k = None;
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
        let speedup = secs_reference.map(|r| r / secs_parallel);
        if n == 1 << 16 {
            speedup_at_64k = speedup;
        }
        // `pairs` is the full-pass-equivalent n²: the ordered pairs one
        // unfiltered scoring pass would visit. The π-suffix kernel
        // visits fewer (about n²/2 on distinct probabilities), so
        // `mpairs_per_sec` reads as n² work per second, comparable
        // across kernels, not as pairs actually visited.
        let pairs = (n as u128) * (n as u128);
        artifact.row(vec![
            ("n", n.into()),
            ("pairs", Cell::Int(pairs)),
            ("secs_reference_parallel", Cell::opt(secs_reference, 6)),
            ("secs_blocked_serial", Cell::Fixed(secs_blocked_serial, 6)),
            ("secs_parallel", Cell::Fixed(secs_parallel, 6)),
            ("speedup_vs_reference", Cell::opt(speedup, 6)),
            (
                "mpairs_per_sec",
                Cell::Fixed(pairs as f64 / secs_parallel / 1e6, 3),
            ),
            (
                "max_abs_diff_vs_reference",
                max_abs_diff.map_or(Cell::Null, |d| Cell::Sci(d, 3)),
            ),
        ]);
    }
    artifact.field(
        "speedup_vs_reference_at_65536",
        Cell::opt(speedup_at_64k, 6),
    );
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_and_serializes() {
        // Benchmark-scale timings belong to the CI `bench-kernel
        // --quick` step; the unit test sweeps tiny supports through the
        // same loop to guard the measurement + serialization paths.
        let artifact = run_sizes(&[256, 512], 256, 2, true);
        assert_eq!(artifact.row_count(), 2);
        let json = artifact.to_json();
        assert!(json.contains("\"artifact\": \"BENCH_kernel\""));
        assert!(json.contains("\"n\": 256"));
        // The capped row measures the reference (with a tight diff);
        // the row beyond the cap records null for it.
        let num = |row, key| artifact.cell(row, key).and_then(Cell::as_f64);
        assert!(num(0, "secs_reference_parallel").is_some());
        assert!(num(0, "max_abs_diff_vs_reference").unwrap() < 1e-9);
        assert_eq!(
            artifact.cell(1, "secs_reference_parallel"),
            Some(&Cell::Null)
        );
        assert!(json.contains("\"secs_reference_parallel\": null"));
        crate::report::assert_same_schema(&json, include_str!("../../../BENCH_kernel.json"));
        // Render must not panic and must show every row.
        let text = artifact.render();
        assert!(text.contains("256") && text.contains("512"));
    }

    #[test]
    fn quick_sweep_sizes_cross_the_parallel_threshold() {
        // The CI smoke sweep must exercise the work-stealing scheduler,
        // not the serial fallback.
        let threshold = KernelTuning::default().parallel_threshold;
        assert!(QUICK_SIZES.iter().all(|&n| n >= threshold));
    }
}
