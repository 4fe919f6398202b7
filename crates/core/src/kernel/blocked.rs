//! Cache-blocked, branchless tile kernels — the serial building blocks
//! every schedule of the exact kernel composes, generic over the number
//! `L` of `u64` limbs per key.
//!
//! Layout of one tile of work: for an outer tile of outcomes
//! `x ∈ x_range`, the support is swept in inner tiles of `tile`
//! entries. One inner tile of the SoA layout (`tile` keys + `tile`
//! probabilities ≈ 8 KiB at the default tile size and one limb) is
//! reused by every `x` of the outer tile, so it stays L1-resident across
//! the whole reuse window instead of being re-streamed from L2/L3 per
//! outcome.

use std::ops::Range;

use crate::config::FilterRule;

use super::weights::WeightTable;

/// The Hamming distance of two `L`-limb keys: one XOR + POPCNT per limb.
#[inline(always)]
pub(crate) fn hamming<const L: usize>(x: &[u64; L], y: &[u64; L]) -> usize {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a ^ b).count_ones())
        .sum::<u32>() as usize
}

/// A monomorphized neighbor filter: returns `P(y)` when `y` may
/// contribute to `x`'s score and `0.0` otherwise.
///
/// Each implementation is a pure comparison-select, so the optimizer
/// compiles `W[d] * contribution(...)` down to compare + mask (no
/// branch), and each [`FilterRule`] gets its own fully specialized copy
/// of the scoring loop.
pub(crate) trait Filter {
    fn contribution<const L: usize>(xk: &[u64; L], px: f64, yk: &[u64; L], py: f64) -> f64;
}

/// Algorithm 1 line 20: only strictly-less-probable neighbors count.
pub(crate) struct LowerProbabilityOnly;

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

/// The unfiltered ablation: every neighbor except `x` itself counts.
pub(crate) struct ExcludeSelf;

impl Filter for ExcludeSelf {
    #[inline(always)]
    fn contribution<const L: usize>(xk: &[u64; L], _px: f64, yk: &[u64; L], py: f64) -> f64 {
        if yk != xk {
            py
        } else {
            0.0
        }
    }
}

/// Neighborhood scores for the outcomes in `x_range` against the whole
/// support, using `tile`-entry inner blocking. Returns one score per
/// outcome of `x_range`, in order.
pub(super) fn scores_tile<const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    x_range: Range<usize>,
    weights: &WeightTable,
    filter: FilterRule,
    tile: usize,
) -> Vec<f64> {
    match filter {
        FilterRule::LowerProbabilityOnly => {
            scores_tile_mono::<LowerProbabilityOnly, L>(keys, probs, x_range, weights, tile)
        }
        FilterRule::None => scores_tile_mono::<ExcludeSelf, L>(keys, probs, x_range, weights, tile),
    }
}

fn scores_tile_mono<F: Filter, const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    x_range: Range<usize>,
    weights: &WeightTable,
    tile: usize,
) -> Vec<f64> {
    let tile = tile.max(1);
    // Seed every score with its own probability (Algorithm 1 line 17).
    let mut out: Vec<f64> = probs[x_range.clone()].to_vec();
    let n = keys.len();
    let mut y0 = 0;
    while y0 < n {
        let y1 = (y0 + tile).min(n);
        let ykeys = &keys[y0..y1];
        let yprobs = &probs[y0..y1];
        for (slot, i) in out.iter_mut().zip(x_range.clone()) {
            *slot += neighborhood_block::<F, L>(&keys[i], probs[i], ykeys, yprobs, weights);
        }
        y0 = y1;
    }
    out
}

/// Accumulator lanes at one limb per key.
const MAX_LANES: usize = 4;

/// The weighted, filtered neighborhood mass one outcome collects from
/// one L1-resident block of the support.
///
/// Unrolled over `4 / L` independent accumulators so throughput is not
/// serialized on the ~4-cycle latency of a single floating-point add
/// chain: four lanes at one limb, two at two limbs, where each pair
/// already costs two XOR+POPCNTs. The lane sums are combined pairwise
/// at the end; this changes summation order relative to the scalar
/// oracle, which is why equivalence is asserted to `≤ 1e-9` rather than
/// bit-for-bit.
#[inline]
fn neighborhood_block<F: Filter, const L: usize>(
    xk: &[u64; L],
    px: f64,
    ykeys: &[[u64; L]],
    yprobs: &[f64],
    weights: &WeightTable,
) -> f64 {
    let lanes = MAX_LANES / L;
    let mut acc = [0.0f64; MAX_LANES];
    let mut kchunks = ykeys.chunks_exact(lanes);
    let mut pchunks = yprobs.chunks_exact(lanes);
    for (kc, pc) in (&mut kchunks).zip(&mut pchunks) {
        for lane in 0..lanes {
            let d = hamming(xk, &kc[lane]);
            acc[lane] += weights.get(d) * F::contribution(xk, px, &kc[lane], pc[lane]);
        }
    }
    for (yk, &py) in kchunks.remainder().iter().zip(pchunks.remainder()) {
        acc[0] += weights.get(hamming(xk, yk)) * F::contribution(xk, px, yk, py);
    }
    // Pairwise: (a0 + a1) + (a2 + a3) at four lanes, a0 + a1 at two.
    let mut width = lanes;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            acc[i] = acc[2 * i] + acc[2 * i + 1];
        }
    }
    acc[0]
}

/// The Hamming histogram contribution of the outcomes in `x_range`:
/// `out[d] = Σ_{x ∈ x_range} Σ_y [hamming(x,y) = d] · P(y)`, one bin per
/// slot of the [`WeightTable`].
///
/// Branchless by construction — every distance lands in a bin, so there
/// is no cutoff test; callers truncate to `max_d` afterwards. Two
/// interleaved accumulator tables break the store-to-load dependency
/// through the randomly-indexed bin that a single table would serialize
/// on.
pub(super) fn chs_tile<const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    x_range: Range<usize>,
    tile: usize,
) -> Vec<f64> {
    let tile = tile.max(1);
    let mut even = [0.0f64; WeightTable::SLOTS];
    let mut odd = [0.0f64; WeightTable::SLOTS];
    let n = keys.len();
    let mut y0 = 0;
    while y0 < n {
        let y1 = (y0 + tile).min(n);
        let ykeys = &keys[y0..y1];
        let yprobs = &probs[y0..y1];
        for xk in &keys[x_range.clone()] {
            let mut kchunks = ykeys.chunks_exact(2);
            let mut pchunks = yprobs.chunks_exact(2);
            for (kc, pc) in (&mut kchunks).zip(&mut pchunks) {
                even[hamming(xk, &kc[0])] += pc[0];
                odd[hamming(xk, &kc[1])] += pc[1];
            }
            for (yk, &py) in kchunks.remainder().iter().zip(pchunks.remainder()) {
                even[hamming(xk, yk)] += py;
            }
        }
        y0 = y1;
    }
    even.iter().zip(&odd).map(|(a, b)| a + b).collect()
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;

    fn support() -> (Vec<[u64; 1]>, Vec<f64>) {
        let mut state = 0xDEAD_BEEFu64;
        let mut keys = Vec::new();
        let mut probs = Vec::new();
        for i in 0..600u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695040888963407);
            keys.push([state]);
            probs.push(1.0 / (1.0 + i as f64));
        }
        (keys, probs)
    }

    fn entries(keys: &[[u64; 1]], probs: &[f64]) -> Vec<(u128, f64)> {
        keys.iter()
            .map(|&[k]| u128::from(k))
            .zip(probs.iter().copied())
            .collect()
    }

    #[test]
    fn tile_scores_match_oracle_for_every_tile_size() {
        let (keys, probs) = support();
        let e = entries(&keys, &probs);
        let w: Vec<f64> = (0..32).map(|d| 1.0 / (1.0 + d as f64)).collect();
        let table = WeightTable::new(&w);
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&e, &w, filter);
            for tile in [1, 3, 64, 600, 4096] {
                let got = scores_tile(&keys, &probs, 0..keys.len(), &table, filter, tile);
                for (a, b) in oracle.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9, "tile={tile}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn partial_x_ranges_compose() {
        let (keys, probs) = support();
        let table = WeightTable::new(&[0.9, 0.5, 0.25]);
        let rule = FilterRule::LowerProbabilityOnly;
        let whole = scores_tile(&keys, &probs, 0..keys.len(), &table, rule, 128);
        let mut stitched = scores_tile(&keys, &probs, 0..251, &table, rule, 128);
        stitched.extend(scores_tile(
            &keys,
            &probs,
            251..keys.len(),
            &table,
            rule,
            128,
        ));
        assert_eq!(whole.len(), stitched.len());
        for (a, b) in whole.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn chs_matches_oracle() {
        let (keys, probs) = support();
        let e = entries(&keys, &probs);
        let oracle = reference::global_chs(&e, WeightTable::SLOTS);
        let got = chs_tile(&keys, &probs, 0..keys.len(), 96);
        assert_eq!(got.len(), WeightTable::SLOTS);
        for (d, (a, b)) in oracle.iter().zip(&got).enumerate() {
            assert!((a - b).abs() < 1e-9, "bin {d}: {a} vs {b}");
        }
    }
}
