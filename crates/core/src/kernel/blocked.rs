//! Cache-blocked, branchless tile kernels — the serial building blocks
//! every schedule of the exact kernel composes, generic over the number
//! `L` of `u64` limbs per key.
//!
//! Layout of one tile of work: an outer tile of rows sweeps the support
//! in inner tiles of `tile` entries, starting at the first column any of
//! its rows needs; each row skips the columns before its own start. One
//! inner tile of the SoA layout (`tile` keys + `tile` probabilities
//! ≈ 8 KiB at the default tile size and one limb) is reused by every row
//! of the outer tile, so it stays L1-resident across the whole reuse
//! window instead of being re-streamed from L2/L3 per outcome.
//!
//! Row starts are what let each pass visit a pair at most once: the CHS
//! rows start just past the diagonal (one visit per unordered pair), and
//! the π-filtered score rows start at their strictly-less-probable
//! suffix.

use std::ops::Range;

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
/// Each implementation is at most a comparison-select, so the optimizer
/// compiles `W[d] * contribution(...)` down to compare + mask (no
/// branch), and each filter gets its own fully specialized copy of the
/// scoring loop.
pub(crate) trait Filter {
    fn contribution<const L: usize>(xk: &[u64; L], px: f64, yk: &[u64; L], py: f64) -> f64;
}

/// Every neighbor in the swept range counts: the π-suffix sweep has
/// already left out every neighbor the filter would reject.
pub(super) struct Unfiltered;

impl Filter for Unfiltered {
    #[inline(always)]
    fn contribution<const L: usize>(_xk: &[u64; L], _px: f64, _yk: &[u64; L], py: f64) -> f64 {
        py
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

/// Neighborhood scores for the rows in `rows`, row `i` swept over
/// `first(i)..n` with `tile`-entry inner blocking. Returns one score per
/// row, in order.
pub(super) fn scores_tile<F: Filter, const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    rows: Range<usize>,
    first: impl Fn(usize) -> usize,
    weights: &WeightTable,
    tile: usize,
) -> Vec<f64> {
    let tile = tile.max(1);
    // Seed every score with its own probability (Algorithm 1 line 17).
    let mut out: Vec<f64> = probs[rows.clone()].to_vec();
    let n = keys.len();
    let mut y0 = rows.clone().map(&first).min().unwrap_or(n);
    while y0 < n {
        let y1 = (y0 + tile).min(n);
        for (slot, i) in out.iter_mut().zip(rows.clone()) {
            let from = first(i).max(y0);
            if from < y1 {
                *slot += neighborhood_block::<F, L>(
                    &keys[i],
                    probs[i],
                    &keys[from..y1],
                    &probs[from..y1],
                    weights,
                );
            }
        }
        y0 = y1;
    }
    out
}

/// Accumulator lanes (and CHS bin tables) at one limb per key.
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

/// The Hamming histogram contribution of the pairs whose lower index
/// lies in `rows`, one bin per slot of the [`WeightTable`].
///
/// `chs[d] = Σ_x Σ_y [hamming(x,y) = d] · P(y)` is symmetric, so each
/// unordered pair `{i, j}` with `i ∈ rows` and `j > i` is visited once and
/// credits `P(i) + P(j)` to its bin, and each diagonal pair credits
/// `P(i)` to bin 0. Summed over tiles covering `0..n` this is the full
/// histogram.
///
/// Branchless by construction — every distance lands in a bin, so there
/// is no cutoff test; callers truncate to `max_d` afterwards. Four
/// interleaved bin tables break the store-to-load dependency through the
/// randomly-indexed bin that a single table would serialize on.
pub(super) fn chs_tile<const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    rows: Range<usize>,
    tile: usize,
) -> Vec<f64> {
    let tile = tile.max(1);
    let mut bins = [[0.0f64; WeightTable::SLOTS]; MAX_LANES];
    bins[0][0] = probs[rows.clone()].iter().sum();
    let n = keys.len();
    let mut y0 = rows.start;
    while y0 < n {
        let y1 = (y0 + tile).min(n);
        for i in rows.clone() {
            let from = (i + 1).max(y0);
            if from >= y1 {
                continue;
            }
            let (xk, px) = (&keys[i], probs[i]);
            let mut kchunks = keys[from..y1].chunks_exact(MAX_LANES);
            let mut pchunks = probs[from..y1].chunks_exact(MAX_LANES);
            for (kc, pc) in (&mut kchunks).zip(&mut pchunks) {
                for lane in 0..MAX_LANES {
                    bins[lane][hamming(xk, &kc[lane])] += px + pc[lane];
                }
            }
            for (yk, &py) in kchunks.remainder().iter().zip(pchunks.remainder()) {
                bins[0][hamming(xk, yk)] += px + py;
            }
        }
        y0 = y1;
    }
    (0..WeightTable::SLOTS)
        .map(|d| (bins[0][d] + bins[1][d]) + (bins[2][d] + bins[3][d]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;
    use crate::config::FilterRule;

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
        // The support's probabilities are distinct and descending, so
        // the strictly-less-probable suffix of row `i` starts at `i + 1`.
        let (keys, probs) = support();
        let e = entries(&keys, &probs);
        let w: Vec<f64> = (0..32).map(|d| 1.0 / (1.0 + d as f64)).collect();
        let table = WeightTable::new(&w);
        let pi = reference::scores(&e, &w, FilterRule::LowerProbabilityOnly);
        let all = reference::scores(&e, &w, FilterRule::None);
        for tile in [1, 3, 64, 600, 4096] {
            let rows = 0..keys.len();
            let suffix =
                scores_tile::<Unfiltered, 1>(&keys, &probs, rows.clone(), |i| i + 1, &table, tile);
            let full = scores_tile::<ExcludeSelf, 1>(&keys, &probs, rows, |_| 0, &table, tile);
            for ((a, b), (c, d)) in pi.iter().zip(&suffix).zip(all.iter().zip(&full)) {
                assert!((a - b).abs() < 1e-9, "tile={tile}: {a} vs {b}");
                assert!((c - d).abs() < 1e-9, "tile={tile}: {c} vs {d}");
            }
        }
    }

    #[test]
    fn partial_x_ranges_compose() {
        let (keys, probs) = support();
        let table = WeightTable::new(&[0.9, 0.5, 0.25]);
        let n = keys.len();
        let tile = |rows| scores_tile::<Unfiltered, 1>(&keys, &probs, rows, |i| i + 1, &table, 128);
        let whole = tile(0..n);
        let mut stitched = tile(0..251);
        stitched.extend(tile(251..n));
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
        let n = keys.len();
        let whole = chs_tile(&keys, &probs, 0..n, 96);
        let head = chs_tile(&keys, &probs, 0..251, 96);
        let tail = chs_tile(&keys, &probs, 251..n, 96);
        assert_eq!(whole.len(), WeightTable::SLOTS);
        for d in 0..WeightTable::SLOTS {
            let (a, b, c) = (oracle[d], whole[d], head[d] + tail[d]);
            assert!((a - b).abs() < 1e-9, "bin {d}: {a} vs {b}");
            assert!((a - c).abs() < 1e-9, "stitched bin {d}: {a} vs {c}");
        }
    }
}
