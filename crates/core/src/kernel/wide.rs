//! The two-limb entry points of the exact kernel, for registers **wider
//! than 64 bits**.
//!
//! A 65–128-bit outcome packs into two `u64` limbs
//! ([`hammer_dist::Distribution::keys`] holds the low limbs,
//! [`hammer_dist::Distribution::keys_hi`] the high limbs). These
//! adapters interleave the two limb arrays into two-limb keys and run
//! the same limb-generic bodies as the narrow entry points (see the
//! [module docs](super)), so a pair's distance ranges over `0..=128`
//! and lands in the shared 129-slot weight table.
//!
//! The scalar [`super::reference`] oracle operates on full `u128` keys
//! and therefore covers both widths; the wide property tests pin these
//! entry points to it exactly like the narrow ones.

use crate::config::{FilterRule, KernelTuning};

use super::{chs, scores, two_limbs, uncancelled};

/// Two-limb [`super::scores_parallel`].
///
/// # Panics
///
/// Panics if the SoA arrays differ in length.
#[must_use]
pub fn scores_parallel(
    keys_lo: &[u64],
    keys_hi: &[u64],
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tuning: &KernelTuning,
) -> Vec<f64> {
    let keys = two_limbs(keys_lo, keys_hi);
    uncancelled(scores(&keys, probs, weights, filter, threads, tuning, None))
}

/// Two-limb [`super::global_chs_parallel`]: the 129-bin Hamming
/// histogram, truncated or zero-padded to `max_d` bins.
///
/// # Panics
///
/// Panics if the SoA arrays differ in length.
#[must_use]
pub fn global_chs_parallel(
    keys_lo: &[u64],
    keys_hi: &[u64],
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tuning: &KernelTuning,
) -> Vec<f64> {
    let keys = two_limbs(keys_lo, keys_hi);
    uncancelled(chs(&keys, probs, max_d, threads, tuning, None))
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;

    /// A synthetic wide support: ~96 significant bits, both limbs
    /// populated.
    fn support(n: usize) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let mut state = 0x5EED_u64;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut lo = Vec::with_capacity(n);
        let mut hi = Vec::with_capacity(n);
        let mut probs = Vec::with_capacity(n);
        for i in 0..n {
            lo.push(step());
            hi.push(step() & 0xFFFF_FFFF); // 96-bit registers
            probs.push(1.0 / (1.0 + i as f64));
        }
        (lo, hi, probs)
    }

    fn entries(lo: &[u64], hi: &[u64], probs: &[f64]) -> Vec<(u128, f64)> {
        lo.iter()
            .zip(hi)
            .zip(probs)
            .map(|((&l, &h), &p)| (u128::from(l) | (u128::from(h) << 64), p))
            .collect()
    }

    #[test]
    fn wide_scores_match_the_u128_oracle() {
        let (lo, hi, probs) = support(500);
        let e = entries(&lo, &hi, &probs);
        let w: Vec<f64> = (0..48).map(|d| 1.0 / (1.0 + d as f64)).collect();
        let tuning = KernelTuning {
            parallel_threshold: 0,
            tile_size: 37,
            ..KernelTuning::default()
        };
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&e, &w, filter);
            for threads in [1, 2, 7] {
                let got = scores_parallel(&lo, &hi, &probs, &w, filter, threads, &tuning);
                assert_eq!(got.len(), oracle.len());
                for (a, b) in oracle.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9, "threads={threads}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn wide_chs_matches_the_oracle_and_honors_max_d() {
        let (lo, hi, probs) = support(300);
        let e = entries(&lo, &hi, &probs);
        for max_d in [0usize, 1, 48, 129, 140] {
            let oracle = reference::global_chs(&e, max_d);
            let tuning = KernelTuning {
                parallel_threshold: 0,
                tile_size: 19,
                ..KernelTuning::default()
            };
            let serial = global_chs_parallel(&lo, &hi, &probs, max_d, 1, &tuning);
            let parallel = global_chs_parallel(&lo, &hi, &probs, max_d, 3, &tuning);
            assert_eq!(serial.len(), max_d);
            assert_eq!(parallel.len(), max_d);
            for ((a, b), c) in oracle.iter().zip(&serial).zip(&parallel) {
                assert!((a - b).abs() < 1e-9);
                assert!((a - c).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn distances_above_64_land_in_high_bins() {
        // Complementary 128-bit keys: distance exactly 128, reachable
        // only through the wide bins.
        let lo = vec![0u64, u64::MAX];
        let hi = vec![0u64, u64::MAX];
        let probs = vec![0.5, 0.5];
        let chs = global_chs_parallel(&lo, &hi, &probs, 129, 1, &KernelTuning::default());
        assert!((chs[0] - 1.0).abs() < 1e-12); // the diagonal
        assert!((chs[128] - 1.0).abs() < 1e-12); // the complements
        assert!(chs[1..128].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_support_is_fine() {
        let tuning = KernelTuning::default();
        let rule = FilterRule::None;
        assert!(scores_parallel(&[], &[], &[], &[1.0], rule, 1, &tuning).is_empty());
        assert_eq!(
            global_chs_parallel(&[], &[], &[], 3, 1, &tuning),
            vec![0.0; 3]
        );
    }
}
