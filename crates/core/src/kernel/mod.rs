//! The `O(N²)` exact kernel: one blocked, branchless, work-stealing body
//! per pass, generic over the number of `u64` limbs per key.
//!
//! Algorithm 1's cost is two all-pairs Hamming passes over the `N`
//! unique observed outcomes — the CHS pass, then the scoring pass — so
//! the kernel is where reconstruction time lives (Table 3). Both passes
//! are built around six ideas:
//!
//! 1. **Limb-generic keys.** A key is `[u64; L]`: `L = 1` for registers
//!    of up to 64 bits, `L = 2` for 65–128 bits. A pair's distance is
//!    the sum of `L` XOR+POPCNTs, and one loop body compiles once per
//!    limb count. The narrow entry points borrow
//!    [`Distribution::keys`](hammer_dist::Distribution::keys) as
//!    one-limb keys without a copy; the two-limb entry points in
//!    [`wide`] interleave the low and high limbs once per call, an
//!    `O(N)` copy against the `O(N²)` pass. On x86-64 the workspace
//!    builds for `x86-64-v2` (`.cargo/config.toml`), so `count_ones` is
//!    the POPCNT instruction rather than a software popcount.
//!
//! 2. **Each pair visited at most once.** The CHS is symmetric, so its
//!    pass is triangular: each unordered pair credits `P(x) + P(y)` to
//!    its bin once, and the diagonal credits `Σ P(x)` to bin 0. Under
//!    the π filter the scoring pass ranks the outcomes by probability
//!    (descending, ties by index) and each rank sweeps only the ranks
//!    past its tie group — its strictly-less-probable neighbors — so
//!    the filter costs no per-pair select. Together the passes visit
//!    about `N²` pairs instead of `2N²`. Without a filter every outcome
//!    sweeps the whole support.
//!
//! 3. **Structure-of-arrays layout.** Keys and probabilities arrive as
//!    two dense arrays ([`Distribution::probs`](hammer_dist::Distribution::probs)
//!    is zero-copy) instead of interleaved `(key, prob)` pairs. The
//!    XOR+POPCNT distance stream and the probability stream prefetch
//!    independently.
//!
//! 4. **Cache-blocked tiles.** Both passes sweep the support in tiles of
//!    [`KernelTuning::tile_size`] entries (default 512 ≈ 8 KiB of
//!    one-limb keys + probs). Each inner tile is reused by every outcome
//!    of the current outer tile while it is L1-resident, instead of
//!    re-streaming the full support from L2/L3 once per outcome.
//!
//! 5. **A branchless inner loop.** One zero-padded weight table of
//!    **129** slots — every possible distance of keys of up to two
//!    limbs — serves every limb count and the ANN pass, so the
//!    `d < max_d` cutoff disappears: out-of-neighborhood distances hit a
//!    zero weight. The unfiltered ablation's self-exclusion is a pure
//!    select. The scoring loop keeps `4 / L` independent accumulator
//!    lanes (four at one limb, two at two, where each pair already costs
//!    two POPCNTs); the CHS loop keeps four interleaved histograms of
//!    129 bins.
//!
//! 6. **Work-stealing scheduling.** Above
//!    [`KernelTuning::parallel_threshold`], outer tiles are claimed
//!    dynamically off a shared atomic cursor by crossbeam scoped worker
//!    threads, bounding load imbalance by one tile. The triangular
//!    sweeps make early tiles the heaviest, and they are claimed first.
//!    Below the threshold the same tiles run in order on the calling
//!    thread, so every result is bit-identical across thread counts.
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

use std::ops::Range;

use crate::config::{FilterRule, KernelTuning};
use hammer_pool::{CancelToken, Cancelled};

mod blocked;
pub mod reference;
pub(crate) mod schedule;
mod weights;
pub mod wide;

use blocked::Unfiltered;
pub(crate) use blocked::{hamming, ExcludeSelf, Filter};
pub(crate) use weights::WeightTable;

/// Computes the distribution-wide CHS of Algorithm 1 (lines 3–8) over
/// the SoA support: `chs[d] = Σ_x Σ_y [hamming(x,y) = d] · P(y)` for
/// `d < max_d`. Each unordered pair is visited once. Outer tiles are
/// claimed off a shared atomic cursor by `threads` workers above the
/// tuning's parallel threshold and run in order on the calling thread
/// below it; the result is bit-identical either way.
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
/// with `max_d = weights.len()`. Under the π filter each outcome visits
/// only its strictly-less-probable neighbors. Outer tiles are claimed off
/// a shared atomic cursor by `threads` workers; below the tuning's
/// parallel threshold (or at one thread) they run in order on the
/// calling thread, with bit-identical results.
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

/// The CHS pass body for `L`-limb keys: one triangular sweep per outer
/// tile of `tuning.tile_size` rows, merged in tile order. The tiles are
/// the same at every worker count, so the bins are bit-identical across
/// thread counts. The token is checked before every tile claim.
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
    let partials = schedule::run_tiles_cancellable(
        n.div_ceil(tile),
        workers(n, threads, tuning),
        cancel,
        |t| blocked::chs_tile(keys, probs, tile_rows(t, tile, n), tile),
    )?;
    Ok(merge_bins(partials, max_d))
}

/// The scoring pass body for `L`-limb keys.
///
/// Under the π filter the outcomes are ranked by probability, descending
/// with ties broken by index, and each rank sweeps only the ranks past
/// its tie group: exactly its strictly-less-probable neighbors, with no
/// per-pair select. The scores are scattered back to the input order.
/// Without a filter every row sweeps the whole support and skips itself.
///
/// The token is checked before every outer tile: per-outcome sums are
/// independent, so splitting the outer range composes bit-identically.
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
    let table = WeightTable::new(weights);
    match filter {
        FilterRule::None => {
            sweep::<ExcludeSelf, L>(keys, probs, |_| 0, &table, threads, tuning, cancel)
        }
        FilterRule::LowerProbabilityOnly => {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_unstable_by(|&a, &b| probs[b].total_cmp(&probs[a]).then(a.cmp(&b)));
            let ranked_keys: Vec<[u64; L]> = order.iter().map(|&i| keys[i]).collect();
            let ranked_probs: Vec<f64> = order.iter().map(|&i| probs[i]).collect();
            let lower = lower_suffixes(&ranked_probs);
            let ranked = sweep::<Unfiltered, L>(
                &ranked_keys,
                &ranked_probs,
                |r| lower[r],
                &table,
                threads,
                tuning,
                cancel,
            )?;
            let mut out = vec![0.0; ranked.len()];
            for (&i, score) in order.iter().zip(ranked) {
                out[i] = score;
            }
            Ok(out)
        }
    }
}

/// Scores every row `i` against `first(i)..n`, over outer tiles of
/// `tuning.tile_size` rows.
fn sweep<F: Filter, const L: usize>(
    keys: &[[u64; L]],
    probs: &[f64],
    first: impl Fn(usize) -> usize + Sync,
    table: &WeightTable,
    threads: usize,
    tuning: &KernelTuning,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, Cancelled> {
    let n = keys.len();
    let tile = tuning.tile_size.max(1);
    let per_tile = schedule::run_tiles_cancellable(
        n.div_ceil(tile),
        workers(n, threads, tuning),
        cancel,
        |t| blocked::scores_tile::<F, L>(keys, probs, tile_rows(t, tile, n), &first, table, tile),
    )?;
    Ok(per_tile.concat())
}

/// For probabilities in descending order, where each entry's
/// strictly-less-probable suffix begins: the end of its tie group.
fn lower_suffixes(descending: &[f64]) -> Vec<usize> {
    let n = descending.len();
    let mut starts = vec![n; n];
    for r in (0..n.saturating_sub(1)).rev() {
        starts[r] = if descending[r] > descending[r + 1] {
            r + 1
        } else {
            starts[r + 1]
        };
    }
    starts
}

/// The rows of outer tile `t`.
fn tile_rows(t: usize, tile: usize, n: usize) -> Range<usize> {
    t * tile..((t + 1) * tile).min(n)
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
