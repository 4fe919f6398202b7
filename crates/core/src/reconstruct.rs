//! Hamming Reconstruction — Algorithm 1 of the paper.

use hammer_dist::{spectrum, BitString, Distribution};
use hammer_pool::{CancelToken, Cancelled};

use crate::ann::{self, AnnIndex, AnnParams};
use crate::config::{FilterRule, HammerConfig, WeightScheme};
use crate::kernel;
use crate::trace::{HammerTrace, ScoreBreakdown};

/// The Hamming Reconstruction post-processor.
///
/// Given the noisy output distribution of a NISQ program, HAMMER
/// re-estimates the likelihood of every observed outcome as
/// `L(x) = P(x) · S(x)` (Eq. 1), where the *neighborhood score* `S(x)`
/// aggregates the probability mass around `x` in Hamming space,
/// weighted per distance by the inverse of the distribution-wide
/// Cumulative Hamming Strength and filtered so `x` only collects credit
/// from strictly-less-probable neighbors (§4.2–4.4). Outcomes in dense
/// neighborhoods (the correct answers and their error halo) are boosted;
/// isolated spurious outcomes are hammered down.
///
/// Runtime is `O(N²)` in the number of distinct observed outcomes and
/// memory is `O(n)` in the qubit count (§6.6); the kernel parallelizes
/// across the available cores.
///
/// # Example
///
/// ```
/// use hammer_core::Hammer;
/// use hammer_dist::{BitString, Distribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The Fig. 4 scenario: the correct outcome "11111" is *not* the
/// // most frequent one, but it sits in a rich Hamming neighborhood of
/// // single-flip errors, while the dominant error "00100" is isolated.
/// let noisy = Distribution::from_probs(5, [
///     (BitString::parse("11111")?, 0.15), // correct
///     (BitString::parse("00100")?, 0.25), // dominant spurious outcome
///     (BitString::parse("11110")?, 0.08),
///     (BitString::parse("11101")?, 0.08),
///     (BitString::parse("11011")?, 0.08),
///     (BitString::parse("10111")?, 0.08),
///     (BitString::parse("01111")?, 0.08),
///     (BitString::parse("11100")?, 0.05),
///     (BitString::parse("11010")?, 0.05),
///     (BitString::parse("00111")?, 0.05),
///     (BitString::parse("01011")?, 0.05),
/// ])?;
///
/// let recovered = Hammer::new().reconstruct(&noisy);
/// assert_eq!(recovered.most_probable().unwrap().0, BitString::parse("11111")?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hammer {
    config: HammerConfig,
    threads: usize,
}

impl Default for Hammer {
    fn default() -> Self {
        Self::new()
    }
}

impl Hammer {
    /// A reconstructor with the paper's Algorithm 1 configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(HammerConfig::paper())
    }

    /// A reconstructor with an explicit (possibly ablated)
    /// configuration.
    ///
    /// Defaults to one worker per available core, but never fewer than
    /// two: `threads == 1` is reserved for explicitly pinning the
    /// scalar reference oracle (see
    /// [`with_threads`](Hammer::with_threads)), and a single-core
    /// machine should still get the blocked/branchless kernel by
    /// default — it is about 20× faster than the oracle at the same
    /// thread count (`BENCH_kernel.json`).
    #[must_use]
    pub fn with_config(config: HammerConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(2);
        Self { config, threads }
    }

    /// Overrides the worker-thread count.
    ///
    /// `with_threads(1)` deliberately pins the **serial reference
    /// kernel** — the scalar PR 1 oracle in
    /// [`kernel::reference`](crate::kernel::reference) — rather than
    /// the blocked single-threaded path, so tests and A/B comparisons
    /// can hold the oracle and the optimized schedules side by side
    /// through the same `Hammer` API. Any count ≥ 2 uses the blocked,
    /// branchless, work-stealing kernel (which itself drops to its
    /// blocked serial path below
    /// [`KernelTuning::parallel_threshold`](crate::KernelTuning)).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> HammerConfig {
        self.config
    }

    /// The worker-thread count this reconstructor will use
    /// (1 means the serial reference kernel).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Decides whether the ANN path replaces the exact kernel for this
    /// distribution, and resolves its build parameters if so.
    ///
    /// The gate requires *all* of:
    ///
    /// * the tuning enables it ([`AnnTuning::enabled`]);
    /// * `threads != 1` — one thread pins the scalar reference oracle,
    ///   which doubles as the ANN path's recall oracle;
    /// * the support is at least [`AnnTuning::crossover`] outcomes —
    ///   below it the exact blocked kernel runs, bit-identical to a
    ///   config with the ANN path disabled;
    /// * the neighborhood is *local*: `4 · max_d ≤ n_bits`. Bit-sampling
    ///   LSH separates pairs by `(1 − d/n)^k`; at the paper's half-width
    ///   default (`max_d = n/2`) nearly half of all random pairs are
    ///   in range and no hashing scheme can prune the sweep, so the
    ///   default configuration never takes this path.
    fn ann_params(&self, dist: &Distribution) -> Option<AnnParams> {
        let tuning = &self.config.kernel.ann;
        let n_bits = dist.n_bits();
        let max_d = self.config.neighborhood.max_distance(n_bits);
        let engaged = tuning.enabled
            && self.threads != 1
            && dist.len() >= tuning.crossover.max(2)
            && max_d * 4 <= n_bits;
        engaged.then(|| AnnParams::resolve(tuning, dist.len(), n_bits))
    }

    /// Picks the kernel for this distribution, once per call, so both
    /// passes run on it: the ANN candidate pass when the
    /// [`ann_params`](Hammer::ann_params) gate opens (building the
    /// forest here), the scalar reference oracle at `threads == 1`, the
    /// blocked/work-stealing kernel at one or two limbs otherwise.
    fn kernel<'a>(&self, dist: &'a Distribution) -> Kernel<'a> {
        if let Some(params) = self.ann_params(dist) {
            Kernel::Ann(AnnIndex::build(dist, &params, self.threads))
        } else if self.threads == 1 {
            Kernel::Reference
        } else if dist.n_bits() > 64 {
            Kernel::Wide(kernel::two_limbs(dist.keys(), dist.keys_hi()))
        } else {
            Kernel::Narrow(kernel::one_limb(dist.keys()))
        }
    }

    /// The distribution-wide CHS pass (Algorithm 1 lines 3–8) on `on`.
    fn chs(
        &self,
        on: &Kernel<'_>,
        dist: &Distribution,
        max_d: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<f64>, Cancelled> {
        let (threads, tuning, probs) = (self.threads, &self.config.kernel, dist.probs());
        match on {
            Kernel::Reference => {
                // The scalar oracle has no tile structure to hook; honor
                // the token at entry (serving always runs threads ≥ 2).
                kernel::checkpoint(cancel)?;
                Ok(kernel::reference::global_chs(dist.as_slice(), max_d))
            }
            Kernel::Narrow(keys) => kernel::chs(keys, probs, max_d, threads, tuning, cancel),
            Kernel::Wide(keys) => kernel::chs(keys, probs, max_d, threads, tuning, cancel),
            Kernel::Ann(index) => ann::chs(index, probs, max_d, threads, tuning.tile_size, cancel),
        }
    }

    /// The scoring pass (Algorithm 1 lines 16–21) on `on`, then the
    /// likelihood update. Distributions with fewer than two outcomes
    /// carry no neighborhood information and pass through unchanged.
    fn rescore(
        &self,
        on: &Kernel<'_>,
        dist: &Distribution,
        weights: &[f64],
        cancel: Option<&CancelToken>,
    ) -> Result<Distribution, Cancelled> {
        if dist.len() < 2 {
            return Ok(dist.clone());
        }
        let (threads, tuning, filter) = (self.threads, &self.config.kernel, self.config.filter);
        let probs = dist.probs();
        let scores = match on {
            Kernel::Reference => {
                kernel::checkpoint(cancel)?;
                kernel::reference::scores(dist.as_slice(), weights, filter)
            }
            Kernel::Narrow(keys) => {
                kernel::scores(keys, probs, weights, filter, threads, tuning, cancel)?
            }
            Kernel::Wide(keys) => {
                kernel::scores(keys, probs, weights, filter, threads, tuning, cancel)?
            }
            Kernel::Ann(index) => ann::scores(
                index,
                probs,
                weights,
                filter,
                threads,
                tuning.tile_size,
                cancel,
            )?,
        };
        Ok(self.apply_scores(dist, &scores))
    }

    /// Whether the weight scheme inverts a measured CHS — only those
    /// pay for the `O(N²)` CHS pass.
    fn measures_chs(&self) -> bool {
        matches!(
            self.config.weights,
            WeightScheme::InverseAverageChs | WeightScheme::InverseGlobalChs
        )
    }

    /// Derives the per-distance weight vector for a distribution
    /// (Algorithm 1 lines 10–13, or an ablation variant).
    #[must_use]
    pub fn weights(&self, dist: &Distribution) -> Vec<f64> {
        let max_d = self.config.neighborhood.max_distance(dist.n_bits());
        let chs = if self.measures_chs() {
            kernel::uncancelled(self.chs(&self.kernel(dist), dist, max_d, None))
        } else {
            Vec::new()
        };
        self.weights_from_chs(dist, max_d, &chs)
    }

    /// Weight derivation from an already-computed global CHS (ignored
    /// by the schemes that do not invert a measured CHS).
    fn weights_from_chs(&self, dist: &Distribution, max_d: usize, chs: &[f64]) -> Vec<f64> {
        let n = dist.n_bits();
        match self.config.weights {
            WeightScheme::InverseAverageChs => {
                let n_unique = dist.len().max(1) as f64;
                chs.iter()
                    .map(|&total| if total > 0.0 { n_unique / total } else { 0.0 })
                    .collect()
            }
            WeightScheme::InverseGlobalChs => invert(chs),
            WeightScheme::Uniform => vec![1.0; max_d],
            WeightScheme::InverseBinomial => {
                // Theoretical average CHS under the uniform-error model:
                // a string sees C(n,d)/2^n of the mass at distance d.
                let denom = 2f64.powi(n as i32);
                let theoretical: Vec<f64> = (0..max_d).map(|d| binomial_f(n, d) / denom).collect();
                invert(&theoretical)
            }
        }
    }

    /// The one reconstruction body behind [`reconstruct`](Hammer::reconstruct),
    /// [`try_reconstruct`](Hammer::try_reconstruct) and
    /// [`trace`](Hammer::trace): picks the kernel once (so the ANN
    /// forest is built once), runs the CHS pass when the weight scheme
    /// needs it or `always_chs` asks for it, derives the weights and
    /// rescores.
    ///
    /// The token is checked at tile granularity inside both `O(N²)`
    /// passes; `None` never fires, and an uncancelled run is
    /// bit-identical to a run without a token.
    fn run(
        &self,
        dist: &Distribution,
        always_chs: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<Pass, Cancelled> {
        kernel::checkpoint(cancel)?;
        let max_d = self.config.neighborhood.max_distance(dist.n_bits());
        let on = self.kernel(dist);
        // The forest build itself is not cancellable; look again after it.
        kernel::checkpoint(cancel)?;
        let chs = if always_chs || self.measures_chs() {
            self.chs(&on, dist, max_d, cancel)?
        } else {
            Vec::new()
        };
        let weights = self.weights_from_chs(dist, max_d, &chs);
        let output = self.rescore(&on, dist, &weights, cancel)?;
        Ok(Pass {
            chs,
            weights,
            output,
        })
    }

    /// Runs Hamming Reconstruction and returns the corrected
    /// distribution (`P_out` of Algorithm 1).
    ///
    /// Distributions with fewer than two outcomes are returned
    /// unchanged — there is no neighborhood information to exploit.
    #[must_use]
    pub fn reconstruct(&self, dist: &Distribution) -> Distribution {
        let _t = crate::obs_hooks::reconstruct_hist().start();
        kernel::uncancelled(self.run(dist, false, None)).output
    }

    /// Reconstruction with a caller-supplied weight vector (used by the
    /// weight-scheme ablations).
    #[must_use]
    pub fn reconstruct_with_weights(&self, dist: &Distribution, weights: &[f64]) -> Distribution {
        kernel::uncancelled(self.rescore(&self.kernel(dist), dist, weights, None))
    }

    /// The likelihood update + renormalization tail of Algorithm 1:
    /// `L(x) = P(x) · S(x)`, renormalized by `Distribution`'s
    /// constructor.
    fn apply_scores(&self, dist: &Distribution, scores: &[f64]) -> Distribution {
        let n = dist.n_bits();
        let pairs = dist
            .as_slice()
            .iter()
            .zip(scores)
            .map(|(&(k, p), &s)| (BitString::from_u128(k, n), p * s));
        Distribution::from_probs(n, pairs).expect("scores are positive: every score ≥ P(x) > 0")
    }

    /// Convenience: normalize a raw trial histogram and reconstruct it —
    /// the one-call path from a hardware job result to a corrected
    /// distribution.
    ///
    /// # Example
    ///
    /// ```
    /// use hammer_core::Hammer;
    /// use hammer_dist::{BitString, Counts};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut counts = Counts::new(3)?;
    /// counts.record_n(BitString::parse("111")?, 500);
    /// counts.record_n(BitString::parse("110")?, 300);
    /// counts.record_n(BitString::parse("000")?, 224);
    /// let corrected = Hammer::new().reconstruct_counts(&counts);
    /// assert!((corrected.total_mass() - 1.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn reconstruct_counts(&self, counts: &hammer_dist::Counts) -> Distribution {
        self.reconstruct(&counts.to_distribution())
    }

    /// Cancellable [`reconstruct`](Hammer::reconstruct): the token is
    /// checked at tile granularity inside both `O(N²)` passes (CHS and
    /// scoring), so a fired token — explicit cancel or deadline expiry —
    /// stops the kernel within one tile of work per worker instead of
    /// burning the rest of the sweep. The serving tier threads each
    /// request's deadline through here.
    ///
    /// The token is a per-call value, not reconstructor state, and an
    /// uncancelled `try_reconstruct` is bit-identical to `reconstruct`
    /// (pinned by the cancellation test suite): both run the same body.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the token fires before reconstruction
    /// completes.
    pub fn try_reconstruct(
        &self,
        dist: &Distribution,
        cancel: &CancelToken,
    ) -> Result<Distribution, Cancelled> {
        let _t = crate::obs_hooks::reconstruct_hist().start();
        Ok(self.run(dist, false, Some(cancel))?.output)
    }

    /// Cancellable [`reconstruct_counts`](Hammer::reconstruct_counts).
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the token fires before reconstruction
    /// completes.
    pub fn try_reconstruct_counts(
        &self,
        counts: &hammer_dist::Counts,
        cancel: &CancelToken,
    ) -> Result<Distribution, Cancelled> {
        cancel.check()?;
        self.try_reconstruct(&counts.to_distribution(), cancel)
    }

    /// Runs reconstruction while capturing every intermediate quantity
    /// of Algorithm 1 (global CHS, weights, per-string scores) — the
    /// data behind Fig. 7. The global CHS is measured even when the
    /// weight scheme does not invert it.
    #[must_use]
    pub fn trace(&self, dist: &Distribution) -> HammerTrace {
        let n = dist.n_bits();
        let Pass {
            chs: global_chs,
            weights,
            output,
        } = kernel::uncancelled(self.run(dist, true, None));
        HammerTrace {
            n_bits: n,
            max_distance: self.config.neighborhood.max_distance(n),
            average_chs: global_chs
                .iter()
                .map(|v| v / dist.len().max(1) as f64)
                .collect(),
            global_chs,
            weights,
            input: dist.clone(),
            output,
        }
    }

    /// Per-bin score breakdown of one string (Fig. 7(b, d, e)): its CHS
    /// vector, the weighted per-bin contributions that survive the
    /// filter, and the total score.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width differs from the distribution's.
    #[must_use]
    pub fn score_breakdown(&self, dist: &Distribution, x: BitString) -> ScoreBreakdown {
        assert_eq!(x.len(), dist.n_bits(), "string width mismatch");
        let max_d = self.config.neighborhood.max_distance(dist.n_bits());
        let weights = self.weights(dist);
        let chs = spectrum::chs(dist, x, max_d);
        let px = dist.prob(x);
        // Filtered per-bin contributions.
        let mut contributions = vec![0.0; max_d];
        for &(yk, py) in dist.as_slice() {
            let d = (x.as_u128() ^ yk).count_ones() as usize;
            if d >= max_d {
                continue;
            }
            let passes = match self.config.filter {
                FilterRule::LowerProbabilityOnly => px > py,
                FilterRule::None => yk != x.as_u128(),
            };
            if passes {
                contributions[d] += weights[d] * py;
            }
        }
        let score = px + contributions.iter().sum::<f64>();
        ScoreBreakdown {
            probability: px,
            chs,
            contributions,
            score,
        }
    }
}

/// The kernel one reconstruction runs both passes on.
enum Kernel<'a> {
    /// `threads == 1`: the scalar reference oracle.
    Reference,
    /// The exact blocked kernel over one-limb keys (≤ 64-bit registers).
    Narrow(&'a [[u64; 1]]),
    /// The exact blocked kernel over interleaved two-limb keys.
    Wide(Vec<[u64; 2]>),
    /// The LSH-forest candidate pass.
    Ann(AnnIndex),
}

/// What one run of the reconstruction body computed.
struct Pass {
    /// The measured global CHS (empty when not measured).
    chs: Vec<f64>,
    weights: Vec<f64>,
    output: Distribution,
}

/// Number of floating-point operations HAMMER performs for `n_unique`
/// distinct outcomes, per the §6.6 complexity analysis:
/// `N² + N` (weights) + `N²` (likelihoods) + `N` (normalization).
#[must_use]
pub fn operation_count(n_unique: u64) -> u128 {
    let n = u128::from(n_unique);
    2 * n * n + 2 * n
}

/// Element-wise `1/x` with zeros preserved (Algorithm 1 line 12).
fn invert(chs: &[f64]) -> Vec<f64> {
    chs.iter()
        .map(|&v| if v > 0.0 { 1.0 / v } else { 0.0 })
        .collect()
}

/// Binomial coefficient as f64 (n ≤ 128; `C(128, 64) ≈ 2.4e37` is well
/// inside the f64 range).
fn binomial_f(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeighborhoodLimit;

    fn bs(s: &str) -> BitString {
        BitString::parse(s).unwrap()
    }

    /// The Fig. 4 / Fig. 6 running example.
    fn fig4() -> Distribution {
        Distribution::from_probs(
            3,
            [
                (bs("111"), 0.30),
                (bs("101"), 0.40),
                (bs("110"), 0.05),
                (bs("011"), 0.10),
                (bs("010"), 0.10),
                (bs("001"), 0.05),
            ],
        )
        .unwrap()
    }

    /// A BV-like noisy output: the correct answer has a *rich halo* of
    /// low-probability single- and double-flip errors, while the
    /// dominant incorrect outcome sits isolated far away — the §4.5
    /// structure HAMMER exploits.
    fn halo() -> (Distribution, BitString, BitString) {
        let correct = bs("11111");
        let dominant_error = bs("00100");
        let d = Distribution::from_probs(
            5,
            [
                (correct, 0.15),
                // Five single-flip halo strings.
                (bs("11110"), 0.08),
                (bs("11101"), 0.08),
                (bs("11011"), 0.08),
                (bs("10111"), 0.08),
                (bs("01111"), 0.08),
                // The dominant, isolated incorrect outcome.
                (dominant_error, 0.25),
                // Scattered double-flip errors.
                (bs("11100"), 0.05),
                (bs("11010"), 0.05),
                (bs("00111"), 0.05),
                (bs("01011"), 0.05),
            ],
        )
        .unwrap();
        (d, correct, dominant_error)
    }

    #[test]
    fn boosts_the_correct_answer_over_an_isolated_dominant_error() {
        // Before: the dominant error (0.25) masks the correct answer
        // (0.15). After: the correct answer's rich neighborhood wins.
        let (d, correct, dominant) = halo();
        assert_eq!(d.most_probable().unwrap().0, dominant);
        let out = Hammer::new().reconstruct(&d);
        assert_eq!(out.most_probable().unwrap().0, correct);
        assert!(out.prob(correct) > d.prob(correct), "PST must improve");
        assert!(
            out.prob(dominant) < d.prob(dominant),
            "the dominant error must be hammered down"
        );
        assert!((out.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn small_example_stays_normalized_and_supported() {
        // The Fig. 6 3-qubit toy is too small for d < n/2 neighborhoods
        // to re-rank anything, but the output must stay a valid
        // distribution over the same support.
        let out = Hammer::new().reconstruct(&fig4());
        assert!((out.total_mass() - 1.0).abs() < 1e-9);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn output_support_is_subset_of_input() {
        let input = fig4();
        let out = Hammer::new().reconstruct(&input);
        for (x, p) in out.iter() {
            assert!(p > 0.0);
            assert!(input.prob(x) > 0.0, "{x} not in the input support");
        }
    }

    #[test]
    fn singleton_and_empty_pass_through() {
        let single = Distribution::point_mass(bs("1010"));
        assert_eq!(Hammer::new().reconstruct(&single), single);
    }

    #[test]
    fn default_weights_invert_the_average_chs() {
        let d = fig4();
        let h = Hammer::new();
        let w = h.weights(&d);
        let chs =
            kernel::global_chs_parallel(d.keys(), d.probs(), 2, 1, &crate::KernelTuning::default());
        assert_eq!(w.len(), 2); // n=3 → d < 1.5 → bins {0, 1}
                                // W[d] · (CHS_total[d] / N) = 1.
        for (wi, ci) in w.iter().zip(&chs) {
            assert!((wi * ci / 6.0 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn literal_algorithm_one_weights_invert_the_sum() {
        let d = fig4();
        let h = Hammer::with_config(HammerConfig {
            weights: WeightScheme::InverseGlobalChs,
            ..HammerConfig::paper()
        });
        let w = h.weights(&d);
        let chs =
            kernel::global_chs_parallel(d.keys(), d.probs(), 2, 1, &crate::KernelTuning::default());
        for (wi, ci) in w.iter().zip(&chs) {
            assert!((wi * ci - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_chs_bins_get_zero_weight() {
        // Two far-apart outcomes: no mass at small distances apart from
        // the diagonal.
        let d = Distribution::from_probs(6, [(bs("000000"), 0.5), (bs("111111"), 0.5)]).unwrap();
        let w = Hammer::new().weights(&d);
        // Bins 1 and 2 hold no mass → zero weight, no division by zero.
        assert!(w[1] == 0.0 && w[2] == 0.0);
        let out = Hammer::new().reconstruct(&d);
        assert!((out.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let d = fig4();
        let serial = Hammer::new().with_threads(1).reconstruct(&d);
        let parallel = Hammer::new().with_threads(4).reconstruct(&d);
        for (x, p) in serial.iter() {
            assert!((parallel.prob(x) - p).abs() < 1e-12);
        }
    }

    /// The §4.5 halo structure at 100 qubits: the wide (two-limb) kernel
    /// must re-rank exactly like the narrow one does at small widths,
    /// and agree with the u128 reference oracle pinned by `threads(1)`.
    #[test]
    fn wide_reconstruction_boosts_the_correct_answer() {
        let n = 100;
        let correct = BitString::ones(n);
        let dominant = BitString::zeros(n).flip_bit(70).flip_bit(3);
        let mut pairs = vec![(correct, 0.15), (dominant, 0.25)];
        // A rich single-flip halo around the correct answer, straddling
        // the limb boundary.
        for q in [0usize, 31, 63, 64, 90, 99] {
            pairs.push((correct.flip_bit(q), 0.08));
        }
        // Scattered double-flip errors.
        for (a, b) in [(1usize, 65usize), (2, 80), (40, 70)] {
            pairs.push((correct.flip_bit(a).flip_bit(b), 0.04));
        }
        let d = Distribution::from_probs(n, pairs).unwrap();
        assert_eq!(d.most_probable().unwrap().0, dominant);
        // Force the parallel (wide blocked) kernel even on this small
        // support.
        let config = HammerConfig {
            kernel: crate::KernelTuning {
                parallel_threshold: 0,
                tile_size: 4,
                ..crate::KernelTuning::default()
            },
            ..HammerConfig::paper()
        };
        let out = Hammer::with_config(config).with_threads(4).reconstruct(&d);
        assert_eq!(out.most_probable().unwrap().0, correct);
        assert!((out.total_mass() - 1.0).abs() < 1e-9);
        // The scalar u128 oracle path agrees.
        let oracle = Hammer::with_config(config).with_threads(1).reconstruct(&d);
        for (x, p) in oracle.iter() {
            assert!((out.prob(x) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn ann_gate_opens_only_for_local_neighborhoods_at_scale() {
        use crate::config::AnnTuning;
        // 64 single-bit outcomes at 64 bits: wide enough for a Fixed(8)
        // neighborhood to be "local" (4·8 ≤ 64).
        let d = Distribution::from_probs(
            64,
            (0..64u32).map(|i| (BitString::from_u128(1u128 << i, 64), 1.0 + f64::from(i))),
        )
        .unwrap();
        let local = |crossover: usize| HammerConfig {
            neighborhood: NeighborhoodLimit::Fixed(8),
            kernel: crate::KernelTuning {
                ann: AnnTuning {
                    crossover,
                    ..AnnTuning::default()
                },
                ..crate::KernelTuning::default()
            },
            ..HammerConfig::paper()
        };
        let h = Hammer::with_config(local(4)).with_threads(2);
        assert!(h.ann_params(&d).is_some(), "local + at scale must engage");
        // threads == 1 pins the exact scalar oracle.
        assert!(h.clone().with_threads(1).ann_params(&d).is_none());
        // Below the crossover the exact blocked kernel stays in charge.
        let below = Hammer::with_config(local(1000)).with_threads(2);
        assert!(below.ann_params(&d).is_none());
        // Explicitly disabled tuning never engages.
        let off = HammerConfig {
            kernel: crate::KernelTuning {
                ann: AnnTuning {
                    enabled: false,
                    crossover: 4,
                    ..AnnTuning::default()
                },
                ..crate::KernelTuning::default()
            },
            ..local(4)
        };
        assert!(Hammer::with_config(off)
            .with_threads(2)
            .ann_params(&d)
            .is_none());
        // The paper's half-width default is never local enough for LSH,
        // so default configs keep the exact kernel at any scale.
        assert!(Hammer::new().with_threads(8).ann_params(&d).is_none());
    }

    #[test]
    fn ann_path_matches_the_exact_kernel_on_an_exhaustive_forest() {
        use crate::config::AnnTuning;
        // Force the ANN dispatch (tiny crossover) with a single 4-bit
        // hash at probe radius 1 over a clustered-ish support; compare
        // against the identical config with ANN disabled.
        let d = Distribution::from_probs(
            64,
            (0..200u64).map(|i| {
                let key = ((i / 4) * 257) ^ (1u64 << (i % 4));
                (BitString::from_u128(u128::from(key), 64), 1.0 + i as f64)
            }),
        )
        .unwrap();
        let base = HammerConfig {
            neighborhood: NeighborhoodLimit::Fixed(10),
            ..HammerConfig::paper()
        };
        let ann_cfg = HammerConfig {
            kernel: crate::KernelTuning {
                ann: AnnTuning {
                    crossover: 2,
                    trees: 3,
                    ..AnnTuning::default()
                },
                ..crate::KernelTuning::default()
            },
            ..base
        };
        let exact_cfg = HammerConfig {
            kernel: crate::KernelTuning {
                ann: AnnTuning {
                    enabled: false,
                    ..AnnTuning::default()
                },
                ..crate::KernelTuning::default()
            },
            ..base
        };
        let approx = Hammer::with_config(ann_cfg).with_threads(3);
        assert!(approx.ann_params(&d).is_some());
        let exact = Hammer::with_config(exact_cfg).with_threads(3);
        let (a, e) = (approx.reconstruct(&d), exact.reconstruct(&d));
        // The auto-resolved forest over this tiny support (k = 4,
        // radius 1, 3 trees) reaches high-but-not-necessarily-perfect
        // recall; the distributions must agree closely.
        let tvd: f64 = e.iter().map(|(x, p)| (p - a.prob(x)).abs()).sum::<f64>() / 2.0;
        assert!(tvd < 0.02, "ANN path drifted from exact: TVD = {tvd}");
        assert_eq!(
            a.most_probable().unwrap().0,
            e.most_probable().unwrap().0,
            "top outcome must survive the approximation"
        );
        // And the ANN path is bit-identical across thread counts.
        let again = Hammer::with_config(ann_cfg).with_threads(7).reconstruct(&d);
        assert_eq!(a, again);
    }

    #[test]
    fn trace_is_consistent_with_reconstruct() {
        let d = fig4();
        let h = Hammer::new();
        let t = h.trace(&d);
        assert_eq!(t.output, h.reconstruct(&d));
        assert_eq!(t.max_distance, 2);
        assert_eq!(t.weights.len(), 2);
        // Average CHS = global / N.
        for (a, g) in t.average_chs.iter().zip(&t.global_chs) {
            assert!((a * 6.0 - g).abs() < 1e-12);
        }
    }

    #[test]
    fn score_breakdown_sums_to_score() {
        let d = fig4();
        let h = Hammer::new();
        for (x, _) in d.iter() {
            let b = h.score_breakdown(&d, x);
            let total = b.probability + b.contributions.iter().sum::<f64>();
            assert!((b.score - total).abs() < 1e-12);
        }
    }

    #[test]
    fn correct_string_outscores_top_incorrect_via_breakdown() {
        // The crux of §4.5: the correct string's neighborhood score must
        // overcome its probability deficit against the dominant error.
        let (d, correct, dominant) = halo();
        let h = Hammer::new();
        let c = h.score_breakdown(&d, correct);
        let e = h.score_breakdown(&d, dominant);
        // The halo makes the correct string's CHS richer at d = 1.
        assert!(c.chs[1] > e.chs[1]);
        assert!(
            c.probability * c.score > e.probability * e.score,
            "likelihoods: correct {} vs incorrect {}",
            c.probability * c.score,
            e.probability * e.score
        );
    }

    #[test]
    fn unbounded_neighborhood_dilutes_scores() {
        // §4.2: "when the entire neighborhood is considered … eventually
        // yielding a uniform score across all outcomes". Verify the
        // score spread shrinks relative to the paper config.
        let d = fig4();
        let paper = Hammer::new();
        let unbounded = Hammer::with_config(HammerConfig {
            neighborhood: NeighborhoodLimit::Unbounded,
            weights: WeightScheme::Uniform,
            filter: FilterRule::None,
            ..HammerConfig::paper()
        });
        let spread = |h: &Hammer| {
            let scores: Vec<f64> = d
                .iter()
                .map(|(x, _)| h.score_breakdown(&d, x).score)
                .collect();
            let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = scores.iter().copied().fold(f64::INFINITY, f64::min);
            max / min
        };
        assert!(spread(&paper) > spread(&unbounded) * 0.99);
    }

    #[test]
    fn operation_count_matches_complexity_section() {
        // 2N² + 2N.
        assert_eq!(operation_count(1), 4);
        assert_eq!(operation_count(1000), 2_002_000);
        // Table 3: 256K trials, 100% unique → ~137 G ops ("64 billion"
        // in the paper counts only the N² kernels; ours includes both).
        let ops = operation_count(262_144);
        assert!(ops > 137_000_000_000 && ops < 138_000_000_000);
    }

    #[test]
    fn uniform_distribution_stays_near_uniform() {
        // No Hamming structure to exploit: HAMMER must not invent one.
        let d = Distribution::uniform(6);
        let out = Hammer::new().reconstruct(&d);
        let (_, p_max) = out.top_k(1)[0];
        let p_min = out.iter().map(|(_, p)| p).fold(f64::INFINITY, f64::min);
        assert!(
            p_max / p_min < 1.0 + 1e-9,
            "uniform input must stay uniform: max/min = {}",
            p_max / p_min
        );
    }
}
