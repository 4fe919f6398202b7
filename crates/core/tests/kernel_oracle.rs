//! Property tests pinning the blocked/branchless/work-stealing kernel
//! to the PR 1 scalar reference oracle.
//!
//! Every schedule — blocked serial, and work-stealing with 1, 2 and 7
//! workers — must agree with `kernel::reference` to `≤ 1e-9` on random
//! supports, for both filter rules and for degenerate weight tables
//! (empty, all-zero, and a full 65-slot table covering every possible
//! Hamming distance of 64-bit keys).
//!
//! Every narrow case also runs through the two-limb entry points with a
//! constant high limb — a differential oracle between the one- and
//! two-limb kernels.

use hammer_core::kernel::{self, reference};
use hammer_core::{FilterRule, KernelTuning};
use proptest::prelude::*;

const TOLERANCE: f64 = 1e-9;

/// Narrow ↔ wide agreement: the same support through both limb counts
/// differs only in summation order.
const NARROW_WIDE_TOLERANCE: f64 = 1e-12;

/// A constant high limb for embedding a ≤64-bit support in two-limb
/// keys: equal high limbs XOR to 0, so every pairwise distance is the
/// narrow one.
const HIGH_LIMB: u64 = 0xA5A5_5A5A_F00F_0FF0;

/// A random SoA support over up-to-64-bit keys, as both layouts.
#[allow(clippy::type_complexity)]
fn support() -> impl Strategy<Value = (Vec<(u128, f64)>, Vec<u64>, Vec<f64>)> {
    (1usize..=64)
        .prop_flat_map(|n| {
            let max = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            proptest::collection::btree_map(0..=max, 1u64..5000, 1..90)
        })
        .prop_map(|map| {
            let entries: Vec<(u128, f64)> = map
                .into_iter()
                .map(|(k, w)| (u128::from(k), w as f64 / 5000.0))
                .collect();
            let keys = entries.iter().map(|&(k, _)| k as u64).collect();
            let probs = entries.iter().map(|&(_, p)| p).collect();
            (entries, keys, probs)
        })
}

/// A random SoA support over 65–128-bit keys, with the high limb
/// populated, as both layouts. (The vendored proptest has no `u128`
/// range strategy, so the high limb derives from a SplitMix-style hash
/// of the distinct low limbs — keys stay distinct and both limbs vary.)
#[allow(clippy::type_complexity)]
fn wide_support() -> impl Strategy<Value = (Vec<(u128, f64)>, Vec<u64>, Vec<u64>, Vec<f64>)> {
    (
        65usize..=128,
        proptest::collection::btree_map(0u64..=u64::MAX, 1u64..5000, 1..70),
    )
        .prop_map(|(n, map)| {
            let hi_mask = if n == 128 {
                u64::MAX
            } else {
                (1u64 << (n - 64)) - 1
            };
            let mut entries: Vec<(u128, f64)> = map
                .into_iter()
                .map(|(lo, w)| {
                    let mut z = lo.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    let hi = z & hi_mask;
                    (u128::from(lo) | (u128::from(hi) << 64), w as f64 / 5000.0)
                })
                .collect();
            entries.sort_by_key(|&(k, _)| k);
            let lo = entries.iter().map(|&(k, _)| k as u64).collect();
            let hi = entries.iter().map(|&(k, _)| (k >> 64) as u64).collect();
            let probs = entries.iter().map(|&(_, p)| p).collect();
            (entries, lo, hi, probs)
        })
}

/// Weight tables including every degenerate shape the issue calls out.
fn weight_table() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        // Empty: max_d = 0, every score collapses to its seed.
        Just(Vec::new()),
        // All-zero (the "no mass in any bin" shape of zero-CHS weights).
        (1usize..=65).prop_map(|len| vec![0.0; len]),
        // A full 65-slot table: every representable distance of 64-bit
        // keys weighted (the wide tests stretch this to 129 slots).
        proptest::collection::vec(0.0f64..2.0, 65..66),
        // A full 129-slot table: every representable two-limb distance.
        proptest::collection::vec(0.0f64..2.0, 129..130),
        // Ordinary random tables of arbitrary cutoff.
        proptest::collection::vec(0.0f64..2.0, 1..40),
    ]
}

/// Tile sizes that exercise remainder handling (tiles that do not
/// divide the support) alongside the default.
fn tuning() -> impl Strategy<Value = KernelTuning> {
    prop_oneof![
        Just(KernelTuning::default()),
        (1usize..90).prop_map(|tile_size| KernelTuning {
            // Forces the work-stealing path regardless of support size.
            parallel_threshold: 0,
            tile_size,
            ..KernelTuning::default()
        }),
    ]
}

proptest! {
    #[test]
    fn blocked_kernel_matches_oracle_across_schedules(
        (entries, keys, probs) in support(),
        weights in weight_table(),
        tuning in tuning(),
    ) {
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&entries, &weights, filter);
            let serial = kernel::scores_parallel(&keys, &probs, &weights, filter, 1, &tuning);
            prop_assert_eq!(serial.len(), oracle.len());
            for (a, b) in oracle.iter().zip(&serial) {
                prop_assert!((a - b).abs() < TOLERANCE, "serial: {} vs {}", a, b);
            }
            for threads in [1usize, 2, 7] {
                let got = kernel::scores_parallel(
                    &keys, &probs, &weights, filter, threads, &tuning,
                );
                prop_assert_eq!(got.len(), oracle.len());
                for (a, b) in oracle.iter().zip(&got) {
                    prop_assert!(
                        (a - b).abs() < TOLERANCE,
                        "threads {}: {} vs {}", threads, a, b
                    );
                }
                let hi = vec![HIGH_LIMB; keys.len()];
                let wide = kernel::wide::scores_parallel(
                    &keys, &hi, &probs, &weights, filter, threads, &tuning,
                );
                prop_assert_eq!(wide.len(), oracle.len());
                for ((a, b), c) in oracle.iter().zip(&got).zip(&wide) {
                    prop_assert!((a - c).abs() < TOLERANCE, "wide: {} vs {}", a, c);
                    prop_assert!(
                        (b - c).abs() < NARROW_WIDE_TOLERANCE,
                        "narrow {} vs wide {}", b, c
                    );
                }
            }
        }
    }

    #[test]
    fn global_chs_matches_oracle_across_schedules(
        (entries, keys, probs) in support(),
        max_d in 0usize..70,
        tuning in tuning(),
    ) {
        let oracle = reference::global_chs(&entries, max_d);
        let serial = kernel::global_chs_parallel(&keys, &probs, max_d, 1, &KernelTuning::default());
        prop_assert_eq!(serial.len(), max_d);
        for threads in [1usize, 2, 7] {
            let got = kernel::global_chs_parallel(&keys, &probs, max_d, threads, &tuning);
            prop_assert_eq!(got.len(), max_d);
            for ((a, b), c) in oracle.iter().zip(&serial).zip(&got) {
                prop_assert!((a - b).abs() < TOLERANCE);
                prop_assert!((a - c).abs() < TOLERANCE);
            }
            let hi = vec![HIGH_LIMB; keys.len()];
            let wide = kernel::wide::global_chs_parallel(
                &keys, &hi, &probs, max_d, threads, &tuning,
            );
            prop_assert_eq!(wide.len(), max_d);
            for ((a, b), c) in oracle.iter().zip(&got).zip(&wide) {
                prop_assert!((a - c).abs() < TOLERANCE, "wide: {} vs {}", a, c);
                prop_assert!(
                    (b - c).abs() < NARROW_WIDE_TOLERANCE,
                    "narrow {} vs wide {}", b, c
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn wide_kernel_matches_oracle_across_schedules(
        (entries, lo, hi, probs) in wide_support(),
        weights in weight_table(),
        tuning in tuning(),
    ) {
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&entries, &weights, filter);
            for threads in [1usize, 2, 7] {
                let got = kernel::wide::scores_parallel(
                    &lo, &hi, &probs, &weights, filter, threads, &tuning,
                );
                prop_assert_eq!(got.len(), oracle.len());
                for (a, b) in oracle.iter().zip(&got) {
                    prop_assert!(
                        (a - b).abs() < TOLERANCE,
                        "threads {}: {} vs {}", threads, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn wide_global_chs_matches_oracle_across_schedules(
        (entries, lo, hi, probs) in wide_support(),
        max_d in 0usize..135,
        tuning in tuning(),
    ) {
        let oracle = reference::global_chs(&entries, max_d);
        for threads in [1usize, 2, 7] {
            let got = kernel::wide::global_chs_parallel(
                &lo, &hi, &probs, max_d, threads, &tuning,
            );
            prop_assert_eq!(got.len(), max_d);
            for (a, b) in oracle.iter().zip(&got) {
                prop_assert!((a - b).abs() < TOLERANCE);
            }
        }
    }
}
