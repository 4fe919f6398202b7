//! Configuration of the Hamming Reconstruction algorithm.
//!
//! The defaults reproduce Algorithm 1 of the paper exactly; the variants
//! exist for the ablation studies called out in `DESIGN.md` §5
//! (neighborhood cutoff, weight scheme, filter rule).

/// How far into the Hamming space the neighborhood score looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborhoodLimit {
    /// The paper's rule: consider distances `d` with `d < n/2`
    /// (Algorithm 1 line 7). "We limit the neighborhood sizes up to n/2
    /// by assigning zero weight for Hamming bins greater than n/2"
    /// (§4.3).
    #[default]
    HalfWidth,
    /// A fixed cutoff: distances `d < k`.
    Fixed(usize),
    /// No cutoff: every pair contributes. §4.2 predicts this dilutes the
    /// score toward uniformity — the ablation verifies it.
    Unbounded,
}

impl NeighborhoodLimit {
    /// Number of Hamming bins (`max_d`, exclusive) for an `n`-bit
    /// distribution.
    #[must_use]
    pub fn max_distance(self, n_bits: usize) -> usize {
        match self {
            // d < n/2 in the real-number sense: d ∈ 0..ceil(n/2).
            Self::HalfWidth => n_bits.div_ceil(2),
            Self::Fixed(k) => k.min(n_bits + 1),
            Self::Unbounded => n_bits + 1,
        }
    }
}

/// How the per-distance weights `W[d]` are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// The paper's rule per §4.3: "we use the average CHS to compute the
    /// weights … by inverting the average CHS" —
    /// `W[d] = 1 / (CHS_total[d] / N) = N / CHS_total[d]`. Because
    /// infrequent outcomes dominate the distribution, the average CHS
    /// captures the *global* neighborhood profile, and inverting it
    /// discounts distances that are rich for everyone.
    #[default]
    InverseAverageChs,
    /// Algorithm 1 read literally: invert the distribution-wide *summed*
    /// CHS (`W[d] = 1 / CHS_total[d]`). This differs from the §4.3 text
    /// by a factor of `N`, which shrinks the neighborhood term to the
    /// point where the probability seed dominates — the ablation
    /// quantifies how much of HAMMER's benefit this forfeits.
    InverseGlobalChs,
    /// Every bin weighs 1 — isolates the benefit of inversion.
    Uniform,
    /// Invert the *theoretical* uniform-error average CHS
    /// (`CHS_uniform[d] = C(n,d) / 2^n`) instead of the measured one.
    InverseBinomial,
}

/// Which neighbors may contribute to a string's score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterRule {
    /// The paper's π filter: a string only collects credit from
    /// strictly-less-probable neighbors (`P(x) > P(y)`, Algorithm 1
    /// line 20). This stops low-probability strings from free-riding on
    /// rich neighborhoods (§4.4).
    #[default]
    LowerProbabilityOnly,
    /// No filter: every neighbor except the string itself contributes.
    None,
}

/// Tuning of the approximate (bit-sampling LSH forest) scoring path —
/// see [`crate::ann`].
///
/// Unlike the cache/threading knobs on [`KernelTuning`], these **can
/// change results**: above the crossover the kernel only visits
/// candidate pairs surfaced by the forest, trading a bounded recall loss
/// for sub-quadratic scoring. [`HammerConfig::fingerprint`] therefore
/// covers these fields. The serving tier always turns this path off:
/// it answers with the exact reconstruction.
///
/// The approximate path only engages when **all** of the following hold
/// (otherwise the exact blocked kernel runs, bit-identical to a config
/// with `enabled: false`):
///
/// * `enabled` is true and the reconstructor uses ≥ 2 threads
///   (`threads == 1` pins the scalar reference oracle);
/// * the support has at least [`crossover`](AnnTuning::crossover)
///   outcomes — below that the exact kernel is faster anyway;
/// * the neighborhood is *local*: `4 · max_d ≤ n_bits`. At the paper's
///   `HalfWidth` cutoff nearly half of all random pairs are in range,
///   so no index can beat the dense sweep — locality is what an LSH
///   forest monetizes. Default `HalfWidth` configs therefore never
///   change behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnTuning {
    /// Master switch for the approximate path.
    pub enabled: bool,
    /// Number of hash tables ("trees") in the forest. More trees raise
    /// recall (independent chances to catch each neighbor) and cost
    /// proportionally more build time and candidates per query.
    pub trees: usize,
    /// Bits sampled per hash; `0` picks `log2(N / oversample)` clamped
    /// to `4..=20`. Fewer bits mean bigger buckets: higher recall,
    /// slower queries.
    pub bits_per_hash: usize,
    /// Target bucket occupancy for the automatic `bits_per_hash` — the
    /// oversampling knob: raising it widens every bucket by the same
    /// factor, trading query time for recall.
    pub oversample: usize,
    /// Multi-probe radius in *hash* space: also visit buckets whose
    /// hash differs in up to this many sampled bits (0 = exact bucket
    /// only; clamped to 2). Radius 1 turns each table into `k + 1`
    /// probes and sharply lifts recall for mid-distance neighbors.
    pub probe_radius: usize,
    /// Support size below which the exact blocked kernel is used
    /// unconditionally.
    pub crossover: usize,
}

impl Default for AnnTuning {
    fn default() -> Self {
        Self {
            enabled: true,
            trees: 8,
            bits_per_hash: 0,
            oversample: 16,
            probe_radius: 1,
            // Chosen when the exact kernel was a software-popcount,
            // 2N²-visit sweep that took about a second at 32K. With
            // POPCNT and the triangular passes it reconstructs 48K
            // 64-bit halos under `Fixed(16)` in about 0.7 s, against
            // about 5 s on the forest (2-CPU Xeon host), so this
            // crossover is due to be re-measured.
            crossover: 32 * 1024,
        }
    }
}

/// Performance tuning of the `O(N²)` scoring kernel.
///
/// The cache/threading knobs (`parallel_threshold`, `tile_size`) change
/// *how fast* a reconstruction runs, never *what* it computes: every
/// setting produces the same scores up to floating-point summation order
/// (the oracle-equivalence property tests pin this to `≤ 1e-9`). The
/// nested [`AnnTuning`] knobs are the exception — above their crossover
/// they switch scoring to the approximate candidate-pair path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTuning {
    /// Support size at or above which the kernel fans out over worker
    /// threads. Below it, thread spawn/join overhead dominates the
    /// `O(N²)` work and the blocked serial path is used instead.
    pub parallel_threshold: usize,
    /// Entries per cache tile. One tile of the structure-of-arrays
    /// layout costs `tile_size · (8 + 8)` bytes; the blocked loops keep
    /// one key/probability tile resident in L1 while it is reused by
    /// every outcome of the current outer tile. The tile is also the
    /// unit the work-stealing scheduler hands to worker threads.
    /// Values are clamped to at least 1.
    pub tile_size: usize,
    /// The approximate (LSH forest) scoring path and its crossover.
    pub ann: AnnTuning,
}

impl Default for KernelTuning {
    fn default() -> Self {
        Self {
            // The PR 1 kernel hard-coded 2048; kept as the default.
            parallel_threshold: 2048,
            // 512 entries = 8 KiB of keys + probs each: two tiles plus
            // accumulators fit comfortably in a 32 KiB L1d.
            tile_size: 512,
            ann: AnnTuning::default(),
        }
    }
}

/// Full configuration of a [`crate::Hammer`] instance.
///
/// `HammerConfig::default()` is the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HammerConfig {
    /// Neighborhood cutoff.
    pub neighborhood: NeighborhoodLimit,
    /// Weight derivation.
    pub weights: WeightScheme,
    /// Neighbor filter.
    pub filter: FilterRule,
    /// Kernel performance tuning (results are unaffected).
    pub kernel: KernelTuning,
}

impl HammerConfig {
    /// The paper's configuration (same as `Default`).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// A stable FNV-1a fingerprint of the *result-determining*
    /// configuration: neighborhood limit, weight scheme, filter rule,
    /// and the [`AnnTuning`] knobs (which select and shape the
    /// approximate scoring path above its crossover). The performance
    /// [`KernelTuning`] knobs (`parallel_threshold`, `tile_size`) are
    /// deliberately **excluded** — they change how fast a
    /// reconstruction runs, never what it computes, so two configs that
    /// differ only in those must share cache entries in the serving
    /// layer (which keys its distribution cache with this). Not a
    /// cryptographic hash — see [`hammer_dist::fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = hammer_dist::fingerprint::Fnv1a::new();
        h.write_bytes(b"hammer-config/v2");
        match self.neighborhood {
            NeighborhoodLimit::HalfWidth => h.write_u8(0),
            NeighborhoodLimit::Fixed(k) => {
                h.write_u8(1);
                h.write_usize(k);
            }
            NeighborhoodLimit::Unbounded => h.write_u8(2),
        }
        h.write_u8(match self.weights {
            WeightScheme::InverseAverageChs => 0,
            WeightScheme::InverseGlobalChs => 1,
            WeightScheme::Uniform => 2,
            WeightScheme::InverseBinomial => 3,
        });
        h.write_u8(match self.filter {
            FilterRule::LowerProbabilityOnly => 0,
            FilterRule::None => 1,
        });
        let ann = &self.kernel.ann;
        h.write_u8(u8::from(ann.enabled));
        h.write_usize(ann.trees);
        h.write_usize(ann.bits_per_hash);
        h.write_usize(ann.oversample);
        h.write_usize(ann.probe_radius);
        h.write_usize(ann.crossover);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_width_matches_algorithm_one() {
        assert_eq!(NeighborhoodLimit::HalfWidth.max_distance(10), 5);
        assert_eq!(NeighborhoodLimit::HalfWidth.max_distance(9), 5);
        assert_eq!(NeighborhoodLimit::HalfWidth.max_distance(3), 2);
        assert_eq!(NeighborhoodLimit::HalfWidth.max_distance(1), 1);
    }

    #[test]
    fn fixed_limit_is_clamped() {
        assert_eq!(NeighborhoodLimit::Fixed(3).max_distance(10), 3);
        assert_eq!(NeighborhoodLimit::Fixed(99).max_distance(4), 5);
    }

    #[test]
    fn unbounded_covers_all_distances() {
        assert_eq!(NeighborhoodLimit::Unbounded.max_distance(6), 7);
    }

    #[test]
    fn default_is_paper_configuration() {
        let d = HammerConfig::default();
        assert_eq!(d, HammerConfig::paper());
        assert_eq!(d.neighborhood, NeighborhoodLimit::HalfWidth);
        assert_eq!(d.weights, WeightScheme::InverseAverageChs);
        assert_eq!(d.filter, FilterRule::LowerProbabilityOnly);
        assert_eq!(d.kernel, KernelTuning::default());
    }

    #[test]
    fn fingerprint_covers_algorithm_but_not_tuning() {
        let base = HammerConfig::paper();
        assert_eq!(base.fingerprint(), HammerConfig::paper().fingerprint());
        // Cache/threading tuning is performance-only: same fingerprint.
        let tuned = HammerConfig {
            kernel: KernelTuning {
                parallel_threshold: 1,
                tile_size: 64,
                ..KernelTuning::default()
            },
            ..base
        };
        assert_eq!(base.fingerprint(), tuned.fingerprint());
        // The ANN knobs shape results above the crossover, so they must
        // move the fingerprint (the serving cache keys on it).
        for ann in [
            AnnTuning {
                enabled: false,
                ..AnnTuning::default()
            },
            AnnTuning {
                trees: 4,
                ..AnnTuning::default()
            },
            AnnTuning {
                oversample: 64,
                ..AnnTuning::default()
            },
            AnnTuning {
                crossover: 1024,
                ..AnnTuning::default()
            },
        ] {
            let approx = HammerConfig {
                kernel: KernelTuning {
                    ann,
                    ..KernelTuning::default()
                },
                ..base
            };
            assert_ne!(base.fingerprint(), approx.fingerprint(), "{ann:?}");
        }
        // Every algorithmic knob moves it.
        let neighborhood = HammerConfig {
            neighborhood: NeighborhoodLimit::Fixed(3),
            ..base
        };
        assert_ne!(base.fingerprint(), neighborhood.fingerprint());
        assert_ne!(
            neighborhood.fingerprint(),
            HammerConfig {
                neighborhood: NeighborhoodLimit::Fixed(4),
                ..base
            }
            .fingerprint()
        );
        let weights = HammerConfig {
            weights: WeightScheme::Uniform,
            ..base
        };
        assert_ne!(base.fingerprint(), weights.fingerprint());
        let filter = HammerConfig {
            filter: FilterRule::None,
            ..base
        };
        assert_ne!(base.fingerprint(), filter.fingerprint());
    }

    #[test]
    fn kernel_tuning_defaults_are_sensible() {
        let t = KernelTuning::default();
        assert_eq!(t.parallel_threshold, 2048);
        assert!(t.tile_size >= 64, "tile must amortize loop overhead");
        // Two SoA tiles (keys + probs for x and y) must fit in a 32 KiB L1d.
        assert!(2 * t.tile_size * 16 <= 32 * 1024);
    }
}
