//! The approximate scoring/CHS pass: Algorithm 1's neighborhood sums
//! evaluated over the forest's candidate pairs only.
//!
//! Semantically this is the exact kernel restricted to the sparse pair
//! graph the forest surfaces: every visited pair contributes exactly
//! what the blocked kernel would have given it (the same shared weight
//! table; the π filter as a per-pair select), and unvisited pairs
//! contribute nothing. Because the weight schemes invert the *measured* CHS, using
//! the same candidate sets for both the CHS pass and the scoring pass
//! keeps the two self-consistent: a bin's aggregate contribution stays
//! `≈ N` whether its pairs were fully or partially covered, and the
//! recall loss shows up only as a (measured, bounded) perturbation of
//! the relative scores.
//!
//! Work is tiled over outcomes with the same work-stealing scheduler as
//! the blocked kernel; each tile reuses one candidate buffer. Candidate
//! ids arrive sorted, so per-outcome accumulation order is fixed by the
//! forest alone — results are bit-identical across thread counts. As in
//! the exact kernel, each pass has one body taking an optional
//! [`CancelToken`], checked before every tile; the public entry points
//! pass `None`.

use crate::config::FilterRule;
use crate::kernel::{
    checkpoint, hamming, merge_bins, schedule, uncancelled, ExcludeSelf, Filter, WeightTable,
};
use hammer_pool::{CancelToken, Cancelled};

use super::AnnIndex;

/// Approximate [`crate::kernel::scores_parallel`]: every outcome's
/// neighborhood sum over its forest candidates only.
///
/// `probs` must be index-aligned with the support the index was built
/// from; `weights[d]` weighs distance `d` (shorter than 129 entries is
/// zero-padded, the `d < max_d` cutoff).
///
/// # Panics
///
/// Panics if `probs` length differs from the indexed support.
#[must_use]
pub fn scores_with_index(
    index: &AnnIndex,
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tile_size: usize,
) -> Vec<f64> {
    uncancelled(scores(
        index, probs, weights, filter, threads, tile_size, None,
    ))
}

/// Approximate [`crate::kernel::global_chs_parallel`]: the Hamming
/// histogram accumulated over forest candidate pairs only, truncated or
/// zero-padded to `max_d` bins. The diagonal (each outcome with itself)
/// is always covered — an outcome's own bucket is always probed — so
/// bin 0 matches the exact kernel exactly.
///
/// # Panics
///
/// Panics if `probs` length differs from the indexed support.
#[must_use]
pub fn global_chs_with_index(
    index: &AnnIndex,
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tile_size: usize,
) -> Vec<f64> {
    uncancelled(chs(index, probs, max_d, threads, tile_size, None))
}

/// The ANN scoring pass body.
pub(crate) fn scores(
    index: &AnnIndex,
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tile_size: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, Cancelled> {
    let table = WeightTable::new(weights);
    match filter {
        FilterRule::LowerProbabilityOnly => {
            scores_mono::<LowerProbabilityOnly>(index, probs, &table, threads, tile_size, cancel)
        }
        FilterRule::None => {
            scores_mono::<ExcludeSelf>(index, probs, &table, threads, tile_size, cancel)
        }
    }
}

/// Algorithm 1 line 20 as a per-pair select: only strictly-less-probable
/// neighbors count. (The exact kernel needs no select: it sweeps each
/// outcome's strictly-less-probable suffix of a probability order.)
struct LowerProbabilityOnly;

impl Filter for LowerProbabilityOnly {
    #[inline(always)]
    fn contribution<const L: usize>(_xk: &[u64; L], px: f64, _yk: &[u64; L], py: f64) -> f64 {
        if px > py {
            py
        } else {
            0.0
        }
    }
}

fn scores_mono<F: Filter>(
    index: &AnnIndex,
    probs: &[f64],
    table: &WeightTable,
    threads: usize,
    tile_size: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, Cancelled> {
    let _t = crate::obs_hooks::ann_query_hist().start();
    check_aligned(index, probs);
    checkpoint(cancel)?;
    let (keys, keys_hi) = (index.keys(), index.keys_hi());
    let n = probs.len();
    let tile = tile_size.max(1);
    let per_tile =
        schedule::run_tiles_cancellable(n.div_ceil(tile), threads.max(1), cancel, |t| {
            let mut cands: Vec<u32> = Vec::new();
            (t * tile..((t + 1) * tile).min(n))
                .map(|i| {
                    index.candidates_of_into(i, &mut cands);
                    let (x, px) = ([keys[i], keys_hi[i]], probs[i]);
                    // Seed with the outcome's own probability (line 17), then
                    // add every candidate that survives the filter. Candidates
                    // include `i` itself, which both filters reject.
                    cands.iter().fold(px, |acc, &id| {
                        let j = id as usize;
                        let y = [keys[j], keys_hi[j]];
                        acc + table.get(hamming(&x, &y)) * F::contribution(&x, px, &y, probs[j])
                    })
                })
                .collect::<Vec<f64>>()
        })?;
    Ok(per_tile.concat())
}

/// The ANN CHS pass body: per-tile histograms merged in tile order on
/// every schedule, so check sites never change summation order.
pub(crate) fn chs(
    index: &AnnIndex,
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tile_size: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, Cancelled> {
    let _t = crate::obs_hooks::ann_query_hist().start();
    check_aligned(index, probs);
    checkpoint(cancel)?;
    let (keys, keys_hi) = (index.keys(), index.keys_hi());
    let n = probs.len();
    let tile = tile_size.max(1);
    let partials =
        schedule::run_tiles_cancellable(n.div_ceil(tile), threads.max(1), cancel, |t| {
            let mut cands: Vec<u32> = Vec::new();
            let mut bins = vec![0.0f64; WeightTable::SLOTS];
            for i in t * tile..((t + 1) * tile).min(n) {
                index.candidates_of_into(i, &mut cands);
                let x = [keys[i], keys_hi[i]];
                for &id in &cands {
                    let j = id as usize;
                    bins[hamming(&x, &[keys[j], keys_hi[j]])] += probs[j];
                }
            }
            bins
        })?;
    Ok(merge_bins(partials, max_d))
}

fn check_aligned(index: &AnnIndex, probs: &[f64]) {
    assert_eq!(
        probs.len(),
        index.len(),
        "probabilities must align with the indexed support"
    );
}

#[cfg(test)]
mod tests {
    use super::super::{AnnIndex, AnnParams, DEFAULT_SEED};
    use super::*;
    use crate::kernel::reference;
    use hammer_dist::{BitString, Distribution};

    /// A mid-size pseudo-random support (64-bit keys, skewed probs).
    fn support(n: usize, n_bits: usize) -> Distribution {
        let mut state = 0xC0FF_EE11u64;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        let mask = |v: u128| {
            if n_bits == 128 {
                v
            } else {
                v & ((1u128 << n_bits) - 1)
            }
        };
        let pairs = (0..n).map(|i| {
            let key = mask(u128::from(step()) | (u128::from(step()) << 64));
            (BitString::from_u128(key, n_bits), 1.0 + (i % 17) as f64)
        });
        Distribution::from_probs(n_bits, pairs).expect("positive weights")
    }

    fn exhaustive_params() -> AnnParams {
        // k = 1 + radius 1 probes every bucket: full recall by
        // construction, so the candidate path must match the exact
        // reference oracle.
        AnnParams {
            trees: 1,
            bits_per_hash: 1,
            probe_radius: 1,
            seed: DEFAULT_SEED,
        }
    }

    #[test]
    fn exhaustive_forest_matches_the_reference_oracle() {
        for n_bits in [64usize, 100] {
            let d = support(400, n_bits);
            let index = AnnIndex::build(&d, &exhaustive_params(), 2);
            let weights: Vec<f64> = (0..24).map(|dd| 1.0 / (1.0 + dd as f64)).collect();
            for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
                let oracle = reference::scores(d.as_slice(), &weights, filter);
                for threads in [1usize, 3] {
                    let got = scores_with_index(&index, d.probs(), &weights, filter, threads, 64);
                    for (a, b) in oracle.iter().zip(&got) {
                        assert!((a - b).abs() < 1e-9, "n_bits={n_bits} {a} vs {b}");
                    }
                }
            }
            for max_d in [0usize, 5, 40] {
                let oracle = reference::global_chs(d.as_slice(), max_d);
                let got = global_chs_with_index(&index, d.probs(), max_d, 3, 64);
                assert_eq!(got.len(), max_d);
                for (a, b) in oracle.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let d = support(600, 64);
        let p = AnnParams {
            trees: 4,
            bits_per_hash: 5,
            probe_radius: 1,
            seed: DEFAULT_SEED,
        };
        let index = AnnIndex::build(&d, &p, 2);
        let weights: Vec<f64> = (0..16).map(|dd| (16 - dd) as f64).collect();
        let base = scores_with_index(
            &index,
            d.probs(),
            &weights,
            FilterRule::LowerProbabilityOnly,
            1,
            48,
        );
        for threads in [2usize, 5] {
            let got = scores_with_index(
                &index,
                d.probs(),
                &weights,
                FilterRule::LowerProbabilityOnly,
                threads,
                48,
            );
            assert_eq!(base, got, "threads={threads} diverged bit-for-bit");
        }
        let chs1 = global_chs_with_index(&index, d.probs(), 16, 1, 48);
        let chs4 = global_chs_with_index(&index, d.probs(), 16, 4, 48);
        for (a, b) in chs1.iter().zip(&chs4) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_bin_is_exact() {
        let d = support(300, 64);
        let p = AnnParams {
            trees: 2,
            bits_per_hash: 8,
            probe_radius: 0,
            seed: DEFAULT_SEED,
        };
        let index = AnnIndex::build(&d, &p, 1);
        let chs = global_chs_with_index(&index, d.probs(), 4, 1, 64);
        // Bin 0 = Σ P(x) = 1: every outcome finds itself.
        assert!((chs[0] - 1.0).abs() < 1e-9);
    }
}
