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

/// A tie-heavy support over up-to-64-bit keys: every trial count is 1, 2
/// or 3, so the π filter sees at most three tie groups, each spread
/// across the key order.
#[allow(clippy::type_complexity)]
fn tied_support() -> impl Strategy<Value = (Vec<(u128, f64)>, Vec<u64>, Vec<f64>)> {
    (1usize..=64)
        .prop_flat_map(|n| {
            let max = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            proptest::collection::btree_map(0..=max, 1u64..=3, 1..150)
        })
        .prop_map(|map| {
            let total = map.values().sum::<u64>() as f64;
            let entries: Vec<(u128, f64)> = map
                .into_iter()
                .map(|(k, c)| (u128::from(k), c as f64 / total))
                .collect();
            let keys = entries.iter().map(|&(k, _)| k as u64).collect();
            let probs = entries.iter().map(|&(_, p)| p).collect();
            (entries, keys, probs)
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
    fn pi_filter_tie_groups_never_credit_each_other(
        (entries, keys, probs) in tied_support(),
        weights in proptest::collection::vec(0.0f64..2.0, 1..66),
    ) {
        let rule = FilterRule::LowerProbabilityOnly;
        let oracle = reference::scores(&entries, &weights, rule);
        let lowest = probs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vec![HIGH_LIMB; keys.len()];
        let flat = vec![1.0 / keys.len() as f64; keys.len()];
        // Tiles of 1, 3 and 7 put tie-group and tile edges everywhere.
        for tile_size in [1usize, 3, 7, 64] {
            let tuning = KernelTuning {
                parallel_threshold: 0,
                tile_size,
                ..KernelTuning::default()
            };
            for threads in [1usize, 2] {
                let narrow = kernel::scores_parallel(&keys, &probs, &weights, rule, threads, &tuning);
                let wide = kernel::wide::scores_parallel(
                    &keys, &hi, &probs, &weights, rule, threads, &tuning,
                );
                for (((a, b), c), &p) in oracle.iter().zip(&narrow).zip(&wide).zip(&probs) {
                    prop_assert!((a - b).abs() < TOLERANCE, "tile {}: {} vs {}", tile_size, a, b);
                    prop_assert!((a - c).abs() < TOLERANCE, "wide tile {}: {} vs {}", tile_size, a, c);
                    // The lowest tie group has no strictly-less-probable
                    // neighbor, so its scores stay exactly at the seed.
                    if p == lowest {
                        prop_assert_eq!(*b, p);
                        prop_assert_eq!(*c, p);
                    }
                }
                // One tie group spanning the whole support: nobody
                // credits anybody.
                let narrow = kernel::scores_parallel(&keys, &flat, &weights, rule, threads, &tuning);
                let wide = kernel::wide::scores_parallel(
                    &keys, &hi, &flat, &weights, rule, threads, &tuning,
                );
                prop_assert_eq!(&narrow, &flat);
                prop_assert_eq!(&wide, &flat);
            }
        }
    }

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

/// Both passes are bit-identical at every worker count, narrow and wide:
/// the outer tiles do not depend on the number of workers, and per-tile
/// results are merged in tile order.
#[test]
fn both_passes_are_bit_identical_across_thread_counts() {
    let mut state = 0x00DD_BA11_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 7
    };
    let n = 3000;
    let lo: Vec<u64> = (0..n).map(|_| next()).collect();
    let hi: Vec<u64> = (0..n).map(|_| next() & 0xFFFF_FFFF).collect();
    // Trial counts 1..=5: many ties for the π filter.
    let probs: Vec<f64> = (0..n).map(|_| (next() % 5 + 1) as f64 / 9000.0).collect();
    let weights: Vec<f64> = (0..48).map(|d| 1.0 / (1.0 + f64::from(d))).collect();
    let tuning = KernelTuning {
        parallel_threshold: 0,
        tile_size: 64,
        ..KernelTuning::default()
    };
    let run = |threads: usize| {
        let mut out = vec![
            kernel::global_chs_parallel(&lo, &probs, 65, threads, &tuning),
            kernel::wide::global_chs_parallel(&lo, &hi, &probs, 129, threads, &tuning),
        ];
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            out.push(kernel::scores_parallel(
                &lo, &probs, &weights, filter, threads, &tuning,
            ));
            out.push(kernel::wide::scores_parallel(
                &lo, &hi, &probs, &weights, filter, threads, &tuning,
            ));
        }
        out
    };
    let one = run(1);
    for threads in [2, 3, 7] {
        assert!(
            run(threads) == one,
            "threads {threads} differ from threads 1"
        );
    }
}
