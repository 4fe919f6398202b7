//! The `O(N²)` exact kernel: one blocked, branchless, work-stealing body
//! per pass, generic over the number of `u64` limbs per key.
//!
//! Algorithm 1's cost is two all-pairs Hamming passes over the `N`
//! unique observed outcomes — the CHS pass, then the scoring pass — so
//! the kernel is where reconstruction time lives (Table 3). Both passes
//! are built around five ideas:
//!
//! 1. **Limb-generic keys.** A key is `[u64; L]`: `L = 1` for registers
//!    of up to 64 bits, `L = 2` for 65–128 bits. A pair's distance is
//!    the sum of `L` XOR+POPCNTs, and one loop body compiles once per
//!    limb count. The narrow entry points borrow
//!    [`Distribution::keys`](hammer_dist::Distribution::keys) as
//!    one-limb keys without a copy; the two-limb entry points in
//!    [`wide`] interleave the low and high limbs once per call, an
//!    `O(N)` copy against the `O(N²)` pass.
//!
//! 2. **Structure-of-arrays layout.** Keys and probabilities arrive as
//!    two dense arrays ([`Distribution::probs`](hammer_dist::Distribution::probs)
//!    is zero-copy) instead of interleaved `(key, prob)` pairs. The
//!    XOR+POPCNT distance stream and the probability stream prefetch
//!    independently.
//!
//! 3. **Cache-blocked tiles.** Both passes sweep the support in tiles of
//!    [`KernelTuning::tile_size`] entries (default 512 ≈ 8 KiB of
//!    one-limb keys + probs). Each inner tile is reused by every outcome
//!    of the current outer tile while it is L1-resident, instead of
//!    re-streaming the full support from L2/L3 once per outcome.
//!
//! 4. **A branchless inner loop.** One zero-padded weight table of
//!    **129** slots — every possible distance of keys of up to two
//!    limbs — serves every limb count and the ANN pass, so the
//!    `d < max_d` cutoff disappears: out-of-neighborhood distances hit a
//!    zero weight. The π-filter compare is a pure select, and each
//!    [`FilterRule`] gets its own monomorphized loop. The scoring loop
//!    keeps `4 / L` independent accumulator lanes (four at one limb, two
//!    at two, where each pair already costs two POPCNTs); the CHS loop
//!    keeps even/odd histograms of 129 bins.
//!
//! 5. **Work-stealing scheduling.** Above
//!    [`KernelTuning::parallel_threshold`], outer tiles are claimed
//!    dynamically off a shared atomic cursor by crossbeam scoped worker
//!    threads, bounding load imbalance by one tile. Below it the same
//!    tiles run in order on the calling thread.
//!
//! Each pass has one body, which takes an optional [`CancelToken`]: a
//! fired token stops the pass within one tile of work per worker. The public entry points
//! here and in [`wide`] pass `None`; `Hammer::try_reconstruct` passes
//! the caller's token. Results are bit-identical whether or not a token
//! is supplied.
//!
//! The original scalar kernel survives in [`mod@reference`] (keys
//! widened to `u128`, loop structure untouched) as the correctness oracle
//! (property-tested to `≤ 1e-9` agreement) and the speedup baseline
//! recorded by `repro bench-kernel`.

use crate::config::{FilterRule, KernelTuning};
use hammer_pool::{CancelToken, Cancelled};

mod blocked;
pub mod reference;
pub(crate) mod schedule;
mod weights;
pub mod wide;

pub(crate) use blocked::{hamming, ExcludeSelf, Filter, LowerProbabilityOnly};
pub(crate) use weights::WeightTable;

/// Computes the distribution-wide CHS of Algorithm 1 (lines 3–8) over
/// the SoA support: `chs[d] = Σ_x Σ_y [hamming(x,y) = d] · P(y)` for
/// `d < max_d`. Work-stealing over outer tiles above the tuning's
/// parallel threshold, one blocked serial sweep below it.
///
/// # Panics
///
/// Panics if `keys` and `probs` differ in length.
#[must_use]
pub fn global_chs_parallel(
    keys: &[u64],
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tuning: &KernelTuning,
) -> Vec<f64> {
    uncancelled(chs(one_limb(keys), probs, max_d, threads, tuning, None))
}

/// Computes every outcome's neighborhood score (Algorithm 1 lines
/// 16–21) over the SoA support: for each `x`,
/// `score(x) = P(x) + Σ_y [hd(x,y) < max_d ∧ filter(x,y)] · W[d] · P(y)`
/// with `max_d = weights.len()`. Outer tiles are claimed off a shared
/// atomic cursor by `threads` workers; below the tuning's parallel
/// threshold (or at one thread) they run in order on the calling thread.
///
/// # Panics
///
/// Panics if `keys` and `probs` differ in length.
#[must_use]
pub fn scores_parallel(
    keys: &[u64],
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tuning: &KernelTuning,
) -> Vec<f64> {
    uncancelled(scores(
        one_limb(keys),
        probs,
        weights,
        filter,
        threads,
        tuning,
        None,
    ))
}

/// The CHS pass body for `L`-limb keys.
///
/// The work-stealing path checks the token before every tile claim. The
/// serial path is one accumulator sweep over the whole support, checked
/// only on entry: splitting it would change the floating-point summation
/// order of the bins.
pub(crate) fn chs<const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tuning: &KernelTuning,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, Cancelled> {
    assert_eq!(keys.len(), probs.len(), "SoA arrays must be index-aligned");
    checkpoint(cancel)?;
    let n = keys.len();
    let tile = tuning.tile_size.max(1);
    let workers = workers(n, threads, tuning);
    let x_tile = if workers == 1 { n.max(1) } else { tile };
    let partials = schedule::run_tiles_cancellable(n.div_ceil(x_tile), workers, cancel, |t| {
        let start = t * x_tile;
        blocked::chs_tile(keys, probs, start..(start + x_tile).min(n), tile)
    })?;
    Ok(merge_bins(partials, max_d))
}

/// The scoring pass body for `L`-limb keys. The token is checked before
/// every outer tile on both paths: per-outcome sums are independent, so
/// splitting the outer range composes bit-identically.
pub(crate) fn scores<const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tuning: &KernelTuning,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, Cancelled> {
    assert_eq!(keys.len(), probs.len(), "SoA arrays must be index-aligned");
    checkpoint(cancel)?;
    let n = keys.len();
    let table = WeightTable::new(weights);
    let tile = tuning.tile_size.max(1);
    let workers = workers(n, threads, tuning);
    let per_tile = schedule::run_tiles_cancellable(n.div_ceil(tile), workers, cancel, |t| {
        let start = t * tile;
        blocked::scores_tile(
            keys,
            probs,
            start..(start + tile).min(n),
            &table,
            filter,
            tile,
        )
    })?;
    Ok(per_tile.concat())
}

/// Worker count for a support of `n`: one below the parallel threshold,
/// where spawn/join overhead would dominate.
fn workers(n: usize, threads: usize, tuning: &KernelTuning) -> usize {
    if n < tuning.parallel_threshold {
        1
    } else {
        threads.max(1)
    }
}

/// `u64` keys viewed as one-limb keys, without a copy.
pub(crate) fn one_limb(keys: &[u64]) -> &[[u64; 1]] {
    keys.as_chunks().0
}

/// Low and high limb arrays interleaved into two-limb keys.
///
/// # Panics
///
/// Panics if the limb arrays differ in length.
pub(crate) fn two_limbs(lo: &[u64], hi: &[u64]) -> Vec<[u64; 2]> {
    assert_eq!(lo.len(), hi.len(), "limb arrays must be index-aligned");
    lo.iter().zip(hi).map(|(&l, &h)| [l, h]).collect()
}

/// Sums per-tile histograms in tile order and truncates or zero-pads
/// the result to `max_d` bins.
pub(crate) fn merge_bins(partials: Vec<Vec<f64>>, max_d: usize) -> Vec<f64> {
    let mut out = partials
        .into_iter()
        .reduce(|mut sum, partial| {
            for (acc, v) in sum.iter_mut().zip(&partial) {
                *acc += v;
            }
            sum
        })
        .unwrap_or_default();
    out.truncate(max_d);
    out.resize(max_d, 0.0);
    out
}

/// `Err(Cancelled)` once `cancel` has fired; `None` never fires.
pub(crate) fn checkpoint(cancel: Option<&CancelToken>) -> Result<(), Cancelled> {
    cancel.map_or(Ok(()), CancelToken::check)
}

/// Unwraps the result of a pass that ran without a token.
pub(crate) fn uncancelled<T>(result: Result<T, Cancelled>) -> T {
    result.expect("no token, so the pass cannot be cancelled")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(n: usize) -> (Vec<u64>, Vec<f64>) {
        let mut state = 99u64;
        let mut keys = Vec::with_capacity(n);
        let mut probs = Vec::with_capacity(n);
        for i in 0..n {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            keys.push(state);
            probs.push(1.0 + (i % 11) as f64);
        }
        (keys, probs)
    }

    fn entries(keys: &[u64], probs: &[f64]) -> Vec<(u128, f64)> {
        keys.iter()
            .map(|&k| u128::from(k))
            .zip(probs.iter().copied())
            .collect()
    }

    #[test]
    fn parallel_scores_match_the_oracle_across_schedules() {
        let (keys, probs) = synthetic(700);
        let e = entries(&keys, &probs);
        let w: Vec<f64> = (0..32).map(|d| 0.5f64.powi(d)).collect();
        // Force the work-stealing path even on this small support, with
        // a tile size that does not divide N evenly.
        let tuning = KernelTuning {
            parallel_threshold: 0,
            tile_size: 48,
            ..KernelTuning::default()
        };
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&e, &w, filter);
            for threads in [1, 2, 7] {
                let got = scores_parallel(&keys, &probs, &w, filter, threads, &tuning);
                assert_eq!(got.len(), oracle.len());
                for (a, b) in oracle.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9, "threads={threads}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn global_chs_matches_the_oracle_and_honors_max_d() {
        let (keys, probs) = synthetic(300);
        let e = entries(&keys, &probs);
        for max_d in [0, 1, 7, 32, 65, 80] {
            let oracle = reference::global_chs(&e, max_d);
            let serial = global_chs_parallel(&keys, &probs, max_d, 1, &KernelTuning::default());
            let tuning = KernelTuning {
                parallel_threshold: 0,
                tile_size: 33,
                ..KernelTuning::default()
            };
            let parallel = global_chs_parallel(&keys, &probs, max_d, 3, &tuning);
            assert_eq!(serial.len(), max_d);
            assert_eq!(parallel.len(), max_d);
            for ((a, b), c) in oracle.iter().zip(&serial).zip(&parallel) {
                assert!((a - b).abs() < 1e-9);
                assert!((a - c).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_and_zero_weight_tables_leave_the_seed() {
        let (keys, probs) = synthetic(64);
        let tuning = KernelTuning::default();
        let rule = FilterRule::LowerProbabilityOnly;
        let empty = scores_parallel(&keys, &probs, &[], rule, 1, &tuning);
        assert_eq!(empty, probs);
        let zeros = scores_parallel(&keys, &probs, &[0.0; 65], FilterRule::None, 1, &tuning);
        for (a, b) in zeros.iter().zip(&probs) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn empty_support_is_fine() {
        let tuning = KernelTuning::default();
        assert!(scores_parallel(&[], &[], &[1.0], FilterRule::None, 1, &tuning).is_empty());
        assert_eq!(global_chs_parallel(&[], &[], 3, 1, &tuning), vec![0.0; 3]);
    }

    #[test]
    fn a_fired_token_stops_both_passes_on_every_schedule() {
        let (keys, probs) = synthetic(200);
        let keys = one_limb(&keys);
        let fired = CancelToken::new();
        fired.cancel();
        for parallel_threshold in [0, usize::MAX] {
            let tuning = KernelTuning {
                parallel_threshold,
                tile_size: 16,
                ..KernelTuning::default()
            };
            let rule = FilterRule::None;
            let s = scores(keys, &probs, &[1.0], rule, 2, &tuning, Some(&fired));
            assert_eq!(s, Err(Cancelled));
            let c = chs(keys, &probs, 4, 2, &tuning, Some(&fired));
            assert_eq!(c, Err(Cancelled));
            let live = CancelToken::new();
            assert_eq!(
                scores(keys, &probs, &[1.0], rule, 2, &tuning, Some(&live)).unwrap(),
                scores(keys, &probs, &[1.0], rule, 2, &tuning, None).unwrap()
            );
        }
    }
}
