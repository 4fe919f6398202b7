//! Property-based tests for Hamming Reconstruction.

use hammer_core::{
    AnnTuning, FilterRule, Hammer, HammerConfig, KernelTuning, NeighborhoodLimit, WeightScheme,
};
use hammer_dist::{BitString, Counts, Distribution};
use proptest::prelude::*;

/// XOR relabelling changes the key order, and with it the summation
/// order inside every pass; nothing else.
const RELABEL_TOLERANCE: f64 = 1e-12;

/// `d ⊕ m`: every outcome XOR-ed with `mask`.
fn relabel(d: &Distribution, mask: u128) -> Distribution {
    let n = d.n_bits();
    let pairs = d
        .iter()
        .map(|(x, p)| (BitString::from_u128(x.as_u128() ^ mask, n), p));
    Distribution::from_probs(n, pairs).expect("relabelling keeps a valid distribution")
}

/// The metamorphic relation `reconstruct(d ⊕ m) = reconstruct(d) ⊕ m`:
/// Hamming distances and the π order are invariant under XOR, and so
/// are bit-sampling LSH collisions, so every path must commute with it.
fn commutes_with_xor(h: &Hammer, d: &Distribution, mask: u128) -> Result<(), String> {
    let direct = h.reconstruct(d);
    let relabelled = h.reconstruct(&relabel(d, mask));
    prop_assert_eq!(direct.len(), relabelled.len());
    for (x, p) in direct.iter() {
        let y = BitString::from_u128(x.as_u128() ^ mask, x.len());
        let q = relabelled.prob(y);
        prop_assert!(
            (p - q).abs() <= RELABEL_TOLERANCE,
            "{} ⊕ mask: {} vs {}",
            x,
            p,
            q
        );
    }
    Ok(())
}

/// Qubit relabelling reorders the keys, and with them the summation
/// order inside every pass; nothing else.
const PERMUTE_TOLERANCE: f64 = 1e-12;

/// `x` with bit `i` moved to bit `perm[i]`.
fn permute_key(x: u128, perm: &[usize]) -> u128 {
    perm.iter()
        .enumerate()
        .filter(|&(i, _)| (x >> i) & 1 == 1)
        .fold(0, |acc, (_, &to)| acc | 1 << to)
}

/// The metamorphic relation `reconstruct(σ(d)) = σ(reconstruct(d))` for
/// a permutation `σ` of the qubits: it preserves every Hamming distance
/// and every probability, so no exact path may notice it.
fn commutes_with_permutation(h: &Hammer, d: &Distribution, perm: &[usize]) -> Result<(), String> {
    let n = d.n_bits();
    let permuted = Distribution::from_probs(
        n,
        d.iter()
            .map(|(x, p)| (BitString::from_u128(permute_key(x.as_u128(), perm), n), p)),
    )
    .expect("permuting qubits keeps a valid distribution");
    let direct = h.reconstruct(d);
    let relabelled = h.reconstruct(&permuted);
    prop_assert_eq!(direct.len(), relabelled.len());
    for (x, p) in direct.iter() {
        let y = BitString::from_u128(permute_key(x.as_u128(), perm), n);
        let q = relabelled.prob(y);
        prop_assert!(
            (p - q).abs() <= PERMUTE_TOLERANCE,
            "σ({}): {} vs {}",
            x,
            p,
            q
        );
    }
    Ok(())
}

/// A permutation of `0..n` drawn from random sort keys.
fn permutation(sort_keys: &[u64], n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&i| (sort_keys[i], i));
    perm
}

/// Strategy: a sparse distribution over 65–128-bit outcomes, as for the
/// wide kernel oracle (the high limb hashes the distinct low limb).
fn wide_distribution() -> impl Strategy<Value = Distribution> {
    (
        65usize..=128,
        proptest::collection::btree_map(0u64..=u64::MAX, 1u64..2000, 2..60),
    )
        .prop_map(|(n, map)| {
            let hi_mask = if n == 128 {
                u64::MAX
            } else {
                (1u64 << (n - 64)) - 1
            };
            let pairs = map.into_iter().map(|(lo, w)| {
                let mut z = lo.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let key = u128::from(lo) | (u128::from(z & hi_mask) << 64);
                (BitString::from_u128(key, n), w as f64)
            });
            Distribution::from_probs(n, pairs).expect("valid distribution")
        })
}

/// Strategy: a 48-bit support whose keys vary in bits 0..8 and 40..48
/// only, so pairs fall both inside and outside a `Fixed(10)`
/// neighborhood and sampled hash bits both split and miss it.
fn ann_distribution() -> impl Strategy<Value = Distribution> {
    proptest::collection::btree_map(0u64..(1 << 16), 1u64..2000, 2..150).prop_map(|map| {
        let pairs = map.into_iter().map(|(k, w)| {
            let key = (k & 0xFF) | ((k >> 8) << 40);
            (BitString::new(key, 48), w as f64)
        });
        Distribution::from_probs(48, pairs).expect("valid distribution")
    })
}

/// Strategy: a histogram over `bits`-wide outcomes. The high limb
/// hashes the low one, so supports past 64 bits exercise both limbs.
fn counts(bits: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Counts> {
    (
        bits,
        proptest::collection::btree_map(0u64..=u64::MAX, 1u64..2000, 2..60),
    )
        .prop_map(|(n, map)| {
            let mut counts = Counts::new(n).expect("valid width");
            for (lo, c) in map {
                let hi = (lo ^ (lo >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                counts.record_n(BitString::from_u128(mask_of(lo, hi, n), n), c);
            }
            counts
        })
}

/// The metamorphic relation `reconstruct(k · c) = reconstruct(c)`,
/// bit for bit: normalization sums integer-valued f64s exactly and
/// divides once, so scaling every count by `k` changes nothing.
fn invariant_under_scaling(h: &Hammer, counts: &Counts, k: u64) -> Result<(), String> {
    let mut scaled = Counts::new(counts.n_bits()).expect("valid width");
    for (x, c) in counts.iter() {
        scaled.record_n(x, c * k);
    }
    let bits = |d: Distribution| -> Vec<(BitString, u64)> {
        d.iter().map(|(x, p)| (x, p.to_bits())).collect()
    };
    prop_assert_eq!(
        bits(h.reconstruct_counts(counts)),
        bits(h.reconstruct_counts(&scaled))
    );
    Ok(())
}

/// A mask of `n` random bits from two random limbs.
fn mask_of(lo: u64, hi: u64, n: usize) -> u128 {
    let full = u128::from(lo) | (u128::from(hi) << 64);
    if n == 128 {
        full
    } else {
        full & ((1u128 << n) - 1)
    }
}

/// Strategy: a sparse distribution over n-bit outcomes.
fn distribution() -> impl Strategy<Value = Distribution> {
    (3usize..=10)
        .prop_flat_map(|n| {
            let max = (1u64 << n) - 1;
            (
                Just(n),
                proptest::collection::btree_map(0..=max, 1u64..2000, 2..50),
            )
        })
        .prop_map(|(n, map)| {
            let pairs = map
                .into_iter()
                .map(|(k, w)| (BitString::new(k, n), w as f64));
            Distribution::from_probs(n, pairs).expect("valid distribution")
        })
}

/// Strategy: an arbitrary (possibly ablated) configuration.
fn config() -> impl Strategy<Value = HammerConfig> {
    (
        prop_oneof![
            Just(NeighborhoodLimit::HalfWidth),
            (1usize..6).prop_map(NeighborhoodLimit::Fixed),
            Just(NeighborhoodLimit::Unbounded),
        ],
        prop_oneof![
            Just(WeightScheme::InverseAverageChs),
            Just(WeightScheme::InverseGlobalChs),
            Just(WeightScheme::Uniform),
            Just(WeightScheme::InverseBinomial),
        ],
        prop_oneof![
            Just(FilterRule::LowerProbabilityOnly),
            Just(FilterRule::None)
        ],
    )
        .prop_map(|(neighborhood, weights, filter)| HammerConfig {
            neighborhood,
            weights,
            filter,
            ..HammerConfig::paper()
        })
}

proptest! {
    #[test]
    fn output_is_a_valid_distribution(d in distribution(), cfg in config()) {
        let out = Hammer::with_config(cfg).reconstruct(&d);
        prop_assert!((out.total_mass() - 1.0).abs() < 1e-9);
        for (_, p) in out.iter() {
            prop_assert!(p > 0.0);
        }
    }

    #[test]
    fn support_is_preserved(d in distribution(), cfg in config()) {
        // HAMMER never invents outcomes and, because every score is
        // seeded with P(x) > 0, never deletes any either.
        let out = Hammer::with_config(cfg).reconstruct(&d);
        prop_assert_eq!(out.len(), d.len());
        for (x, _) in out.iter() {
            prop_assert!(d.prob(x) > 0.0);
        }
    }

    #[test]
    fn deterministic(d in distribution(), cfg in config()) {
        let a = Hammer::with_config(cfg).reconstruct(&d);
        let b = Hammer::with_config(cfg).reconstruct(&d);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn serial_equals_parallel(d in distribution()) {
        let serial = Hammer::new().with_threads(1).reconstruct(&d);
        let parallel = Hammer::new().with_threads(8).reconstruct(&d);
        for (x, p) in serial.iter() {
            prop_assert!((parallel.prob(x) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_matches_reconstruct(d in distribution(), cfg in config()) {
        let h = Hammer::with_config(cfg);
        let t = h.trace(&d);
        let direct = h.reconstruct(&d);
        for (x, p) in direct.iter() {
            prop_assert!((t.output.prob(x) - p).abs() < 1e-9);
        }
        prop_assert_eq!(t.weights.len(), t.max_distance);
        prop_assert_eq!(t.global_chs.len(), t.max_distance);
    }

    #[test]
    fn scores_breakdown_consistent(d in distribution()) {
        let h = Hammer::new();
        for (x, _) in d.iter().take(10) {
            let b = h.score_breakdown(&d, x);
            let total = b.probability + b.contributions.iter().sum::<f64>();
            prop_assert!((b.score - total).abs() < 1e-9);
            prop_assert!(b.score >= b.probability);
        }
    }

    #[test]
    fn top_outcome_never_loses_to_an_equal_neighborhood(d in distribution()) {
        // The most probable outcome's score is seeded highest and the
        // filter only lets it absorb smaller probabilities, so its
        // *score* (not necessarily its likelihood) is at least that of
        // any outcome with an empty neighborhood.
        let h = Hammer::new();
        let (top, p_top) = d.most_probable().unwrap();
        let top_score = h.score_breakdown(&d, top).score;
        prop_assert!(top_score >= p_top - 1e-12);
    }

    #[test]
    fn degenerate_inputs_pass_through(bits in 0u64..16, extra in 0u64..16) {
        let single = Distribution::point_mass(BitString::new(bits, 4));
        prop_assert_eq!(Hammer::new().reconstruct(&single).len(), 1);
        // Two outcomes still work.
        if bits != extra {
            let two = Distribution::from_probs(
                4,
                [
                    (BitString::new(bits, 4), 0.6),
                    (BitString::new(extra, 4), 0.4),
                ],
            )
            .unwrap();
            let out = Hammer::new().reconstruct(&two);
            prop_assert!((out.total_mass() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn xor_relabelling_commutes_on_the_scalar_oracle(
        d in distribution(),
        cfg in config(),
        mask in 0u64..=u64::MAX,
    ) {
        let h = Hammer::with_config(cfg).with_threads(1);
        commutes_with_xor(&h, &d, mask_of(mask, 0, d.n_bits()))?;
    }

    #[test]
    fn xor_relabelling_commutes_on_the_narrow_kernel(
        d in distribution(),
        cfg in config(),
        mask in 0u64..=u64::MAX,
        tile_size in 1usize..20,
    ) {
        // Force the work-stealing path with tiles that do not divide N.
        let cfg = HammerConfig {
            kernel: KernelTuning {
                parallel_threshold: 0,
                tile_size,
                ..KernelTuning::default()
            },
            ..cfg
        };
        let h = Hammer::with_config(cfg).with_threads(3);
        commutes_with_xor(&h, &d, mask_of(mask, 0, d.n_bits()))?;
    }

    #[test]
    fn qubit_permutation_commutes_on_the_scalar_oracle(
        d in distribution(),
        cfg in config(),
        sort_keys in proptest::collection::vec(0u64..=u64::MAX, 10..11),
    ) {
        let h = Hammer::with_config(cfg).with_threads(1);
        commutes_with_permutation(&h, &d, &permutation(&sort_keys, d.n_bits()))?;
    }

    #[test]
    fn qubit_permutation_commutes_on_the_narrow_kernel(
        d in distribution(),
        cfg in config(),
        sort_keys in proptest::collection::vec(0u64..=u64::MAX, 10..11),
        tile_size in 1usize..20,
    ) {
        let cfg = HammerConfig {
            kernel: KernelTuning {
                parallel_threshold: 0,
                tile_size,
                ..KernelTuning::default()
            },
            ..cfg
        };
        let h = Hammer::with_config(cfg).with_threads(3);
        commutes_with_permutation(&h, &d, &permutation(&sort_keys, d.n_bits()))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xor_relabelling_commutes_on_the_wide_kernel(
        d in wide_distribution(),
        cfg in config(),
        lo in 0u64..=u64::MAX,
        hi in 0u64..=u64::MAX,
        forced in 0usize..2,
    ) {
        let kernel = if forced == 1 {
            KernelTuning { parallel_threshold: 0, tile_size: 7, ..KernelTuning::default() }
        } else {
            KernelTuning::default()
        };
        let h = Hammer::with_config(HammerConfig { kernel, ..cfg }).with_threads(2);
        commutes_with_xor(&h, &d, mask_of(lo, hi, d.n_bits()))?;
    }

    #[test]
    fn qubit_permutation_commutes_on_the_wide_kernel(
        d in wide_distribution(),
        cfg in config(),
        sort_keys in proptest::collection::vec(0u64..=u64::MAX, 128..129),
    ) {
        let kernel = KernelTuning { parallel_threshold: 0, tile_size: 7, ..KernelTuning::default() };
        let h = Hammer::with_config(HammerConfig { kernel, ..cfg }).with_threads(2);
        commutes_with_permutation(&h, &d, &permutation(&sort_keys, d.n_bits()))?;
    }

    #[test]
    fn scaling_counts_is_bit_identical_on_every_exact_path(
        narrow in counts(3..=10),
        wide in counts(65..=128),
        cfg in config(),
        k in prop_oneof![Just(2u64), Just(3), Just(7)],
    ) {
        let kernel = KernelTuning { parallel_threshold: 0, tile_size: 7, ..KernelTuning::default() };
        let forced = HammerConfig { kernel, ..cfg };
        invariant_under_scaling(&Hammer::with_config(cfg).with_threads(1), &narrow, k)?;
        invariant_under_scaling(&Hammer::with_config(forced).with_threads(3), &narrow, k)?;
        invariant_under_scaling(&Hammer::with_config(forced).with_threads(2), &wide, k)?;
    }

    #[test]
    fn xor_relabelling_commutes_on_the_ann_path(
        d in ann_distribution(),
        weights in prop_oneof![
            Just(WeightScheme::InverseAverageChs),
            Just(WeightScheme::Uniform),
        ],
        filter in prop_oneof![
            Just(FilterRule::LowerProbabilityOnly),
            Just(FilterRule::None)
        ],
        mask in 0u64..=u64::MAX,
    ) {
        // Forced ANN: a local neighborhood (4 · 10 ≤ 48 bits) and a
        // crossover below every support.
        let cfg = HammerConfig {
            neighborhood: NeighborhoodLimit::Fixed(10),
            weights,
            filter,
            kernel: KernelTuning {
                ann: AnnTuning {
                    crossover: 2,
                    trees: 3,
                    ..AnnTuning::default()
                },
                ..KernelTuning::default()
            },
        };
        let h = Hammer::with_config(cfg).with_threads(2);
        commutes_with_xor(&h, &d, mask_of(mask, 0, 48))?;
    }
}
