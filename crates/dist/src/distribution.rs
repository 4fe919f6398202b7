//! Sparse probability distributions over fixed-width outcomes.

use std::collections::BTreeMap;

use rand::Rng;

use crate::bitstring::{BitString, MAX_BITS};
use crate::error::DistError;

/// Width cap for [`Distribution::uniform`], which materializes all
/// `2^n` outcomes.
const MAX_UNIFORM_BITS: usize = 24;

/// How far the total mass handed to [`Distribution::from_raw_parts`]
/// may drift from 1. Wire round-trips of an in-range distribution are
/// exact (the codec moves IEEE-754 bit patterns), so the tolerance only
/// absorbs rounding in *producers* that assemble probabilities
/// incrementally.
const RAW_MASS_TOLERANCE: f64 = 1e-6;

/// Shared key validation for the `from_raw_parts` constructors: every
/// `(lo, hi)` limb pair must fit in `n_bits` and the packed keys must be
/// strictly ascending. `n_bits` is assumed already range-checked.
pub(crate) fn validate_raw_keys(
    n_bits: usize,
    keys: &[u64],
    keys_hi: &[u64],
) -> Result<(), DistError> {
    let mask = if n_bits == MAX_BITS {
        u128::MAX
    } else {
        (1u128 << n_bits) - 1
    };
    let mut prev: Option<u128> = None;
    for (i, (&lo, &hi)) in keys.iter().zip(keys_hi).enumerate() {
        let k = u128::from(lo) | (u128::from(hi) << 64);
        if k & !mask != 0 {
            return Err(DistError::KeyOutOfRange(i));
        }
        if let Some(p) = prev {
            if k <= p {
                return Err(DistError::UnsortedKeys(i));
            }
        }
        prev = Some(k);
    }
    Ok(())
}

/// A normalized, sparse probability distribution over `n`-bit outcomes.
///
/// The support is stored as a vector of `(packed outcome, probability)`
/// pairs sorted by outcome, which makes iteration deterministic,
/// equality exact, and hands HAMMER's `O(N²)` kernel a flat
/// [`as_slice`](Distribution::as_slice) to stream over. Outcomes pack
/// into `u128` keys (two 64-bit limbs); registers of at most 64 bits
/// keep their whole key in the low limb, which the blocked kernel
/// streams as a dense `u64` array ([`keys`](Distribution::keys)), and
/// wider registers additionally expose the high limbs
/// ([`keys_hi`](Distribution::keys_hi)) for the wide kernel. Every
/// constructor renormalizes, so `total_mass() ≈ 1` always holds and
/// every stored probability is strictly positive.
///
/// # Example
///
/// ```
/// use hammer_dist::{BitString, Distribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Weights need not be normalized; duplicates merge.
/// let d = Distribution::from_probs(2, [
///     (BitString::parse("11")?, 3.0),
///     (BitString::parse("01")?, 1.0),
/// ])?;
/// assert_eq!(d.len(), 2);
/// assert!((d.prob(BitString::parse("11")?) - 0.75).abs() < 1e-12);
/// assert_eq!(d.most_probable().unwrap().0, BitString::parse("11")?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    n_bits: usize,
    /// Sorted by packed outcome; probabilities strictly positive and
    /// summing to 1 (up to rounding).
    entries: Vec<(u128, f64)>,
    /// Structure-of-arrays mirror of `entries` (same order): the low
    /// 64-bit limbs of the packed outcomes. Kept alongside the AoS view
    /// so the `O(N²)` kernel can stream keys and probabilities as dense
    /// arrays ([`keys`](Distribution::keys) /
    /// [`probs`](Distribution::probs)) without a per-call copy or
    /// gather. For registers of at most 64 bits this IS the full key.
    keys: Vec<u64>,
    /// High 64-bit limbs of the packed outcomes, index-aligned with
    /// `keys` (all zero for registers of at most 64 bits).
    keys_hi: Vec<u64>,
    /// Structure-of-arrays mirror of `entries`: the probabilities alone,
    /// index-aligned with `keys`.
    probs: Vec<f64>,
}

impl Distribution {
    /// Builds a distribution from `(outcome, weight)` pairs.
    ///
    /// Weights are relative: duplicates are merged by summation, zero
    /// weights are dropped from the support, and the result is
    /// normalized to unit mass.
    ///
    /// # Errors
    ///
    /// * [`DistError::WidthOutOfRange`] if `n_bits` is outside `1..=128`;
    /// * [`DistError::WidthMismatch`] if any outcome's width differs
    ///   from `n_bits`;
    /// * [`DistError::InvalidProbability`] on a negative or non-finite
    ///   weight;
    /// * [`DistError::EmptyDistribution`] if no positive mass remains.
    pub fn from_probs<I>(n_bits: usize, pairs: I) -> Result<Self, DistError>
    where
        I: IntoIterator<Item = (BitString, f64)>,
    {
        if !(1..=MAX_BITS).contains(&n_bits) {
            return Err(DistError::WidthOutOfRange(n_bits));
        }
        let mut merged: BTreeMap<u128, f64> = BTreeMap::new();
        for (outcome, weight) in pairs {
            if outcome.len() != n_bits {
                return Err(DistError::WidthMismatch {
                    left: n_bits,
                    right: outcome.len(),
                });
            }
            if !weight.is_finite() || weight < 0.0 {
                return Err(DistError::InvalidProbability(weight));
            }
            *merged.entry(outcome.as_u128()).or_insert(0.0) += weight;
        }
        let total: f64 = merged.values().sum();
        // Weights are validated finite and non-negative, so the sum is
        // an ordinary non-negative float.
        if total <= 0.0 {
            return Err(DistError::EmptyDistribution);
        }
        let entries: Vec<(u128, f64)> = merged
            .into_iter()
            .filter(|&(_, w)| w > 0.0)
            .map(|(k, w)| (k, w / total))
            .collect();
        Ok(Self::from_entries(n_bits, entries))
    }

    /// Rebuilds a distribution from its structure-of-arrays parts — the
    /// exact arrays [`keys`](Distribution::keys) /
    /// [`keys_hi`](Distribution::keys_hi) /
    /// [`probs`](Distribution::probs) expose — validating every
    /// invariant instead of trusting the caller. This is the decode half
    /// of the serving layer's wire codec: a well-formed frame
    /// round-trips **byte-identically** (probabilities are stored as
    /// given, never renormalized), and a corrupt or hostile frame comes
    /// back as a [`DistError`] instead of a panic or a silently broken
    /// distribution.
    ///
    /// # Errors
    ///
    /// * [`DistError::WidthOutOfRange`] if `n_bits` is outside `1..=128`;
    /// * [`DistError::RaggedRawParts`] if the arrays disagree on length;
    /// * [`DistError::EmptyDistribution`] if the arrays are empty;
    /// * [`DistError::KeyOutOfRange`] if a key has bits beyond `n_bits`;
    /// * [`DistError::UnsortedKeys`] if the packed keys are not strictly
    ///   ascending;
    /// * [`DistError::InvalidProbability`] on a non-finite or
    ///   non-positive probability;
    /// * [`DistError::NotNormalized`] if the probabilities do not sum to
    ///   1 within `1e-6`.
    pub fn from_raw_parts(
        n_bits: usize,
        keys: Vec<u64>,
        keys_hi: Vec<u64>,
        probs: Vec<f64>,
    ) -> Result<Self, DistError> {
        if !(1..=MAX_BITS).contains(&n_bits) {
            return Err(DistError::WidthOutOfRange(n_bits));
        }
        if keys.len() != keys_hi.len() || keys.len() != probs.len() {
            return Err(DistError::RaggedRawParts {
                keys: keys.len(),
                keys_hi: keys_hi.len(),
                values: probs.len(),
            });
        }
        if keys.is_empty() {
            return Err(DistError::EmptyDistribution);
        }
        validate_raw_keys(n_bits, &keys, &keys_hi)?;
        let mut total = 0.0f64;
        for &p in &probs {
            if !p.is_finite() || p <= 0.0 {
                return Err(DistError::InvalidProbability(p));
            }
            total += p;
        }
        if (total - 1.0).abs() > RAW_MASS_TOLERANCE {
            return Err(DistError::NotNormalized(total));
        }
        let entries = keys
            .iter()
            .zip(&keys_hi)
            .zip(&probs)
            .map(|((&lo, &hi), &p)| (u128::from(lo) | (u128::from(hi) << 64), p))
            .collect();
        Ok(Self {
            n_bits,
            entries,
            keys,
            keys_hi,
            probs,
        })
    }

    /// Builds the struct from already-sorted, normalized entries,
    /// deriving the SoA mirrors.
    fn from_entries(n_bits: usize, entries: Vec<(u128, f64)>) -> Self {
        let keys = entries.iter().map(|&(k, _)| k as u64).collect();
        let keys_hi = entries.iter().map(|&(k, _)| (k >> 64) as u64).collect();
        let probs = entries.iter().map(|&(_, p)| p).collect();
        Self {
            n_bits,
            entries,
            keys,
            keys_hi,
            probs,
        }
    }

    /// The uniform distribution over all `2^n` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` is zero or exceeds 24 (`2^24` dense entries
    /// is the cap; wider uniform references are analytic, see
    /// [`crate::metrics::uniform_ehd`]).
    #[must_use]
    pub fn uniform(n_bits: usize) -> Self {
        assert!(
            (1..=MAX_UNIFORM_BITS).contains(&n_bits),
            "uniform distribution limited to 1..={MAX_UNIFORM_BITS} bits, got {n_bits}"
        );
        let size = 1usize << n_bits;
        let p = 1.0 / size as f64;
        Self::from_entries(n_bits, (0..size as u128).map(|k| (k, p)).collect())
    }

    /// The distribution placing all mass on one outcome.
    #[must_use]
    pub fn point_mass(outcome: BitString) -> Self {
        Self::from_entries(outcome.len(), vec![(outcome.as_u128(), 1.0)])
    }

    /// Register width in bits.
    #[must_use]
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of outcomes in the support.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the support is empty (unreachable through public
    /// constructors, which reject zero mass).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw `(packed outcome, probability)` support, sorted by
    /// outcome — the array-of-structs view, kept for lockstep merges
    /// (metrics) and as the input of the reference scoring kernel.
    #[must_use]
    pub fn as_slice(&self) -> &[(u128, f64)] {
        &self.entries
    }

    /// The low 64-bit limbs of the packed outcomes in ascending key
    /// order — the structure-of-arrays twin of
    /// [`as_slice`](Distribution::as_slice), index-aligned with
    /// [`probs`](Distribution::probs). For registers of at most 64 bits
    /// this is the complete key; wider registers pair it with
    /// [`keys_hi`](Distribution::keys_hi).
    ///
    /// This is a zero-copy view: the SoA mirrors are materialized once
    /// at construction, so the blocked `O(N²)` kernel can stream keys
    /// and probabilities as dense, independently-prefetchable arrays.
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The high 64-bit limbs of the packed outcomes, index-aligned with
    /// [`keys`](Distribution::keys). All zero for registers of at most
    /// 64 bits; the wide (`n > 64`) scoring kernel streams both limb
    /// arrays.
    #[must_use]
    pub fn keys_hi(&self) -> &[u64] {
        &self.keys_hi
    }

    /// The probabilities in the same (ascending-outcome) order as
    /// [`keys`](Distribution::keys). Zero-copy, strictly positive,
    /// summing to 1 up to rounding.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The packed `u128` key of the `i`-th support entry (ascending key
    /// order, index-aligned with [`probs`](Distribution::probs)) —
    /// both limbs of the SoA mirrors reassembled, for callers that need
    /// whole keys by index (the ANN recall oracles, spot checks) without
    /// walking [`as_slice`](Distribution::as_slice).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn key(&self, i: usize) -> u128 {
        u128::from(self.keys[i]) | (u128::from(self.keys_hi[i]) << 64)
    }

    /// Probability of one outcome (0 when outside the support).
    ///
    /// # Panics
    ///
    /// Panics if the outcome width differs from the distribution width.
    #[must_use]
    pub fn prob(&self, outcome: BitString) -> f64 {
        assert_eq!(
            outcome.len(),
            self.n_bits,
            "outcome width {} does not match distribution width {}",
            outcome.len(),
            self.n_bits
        );
        self.entries
            .binary_search_by_key(&outcome.as_u128(), |&(k, _)| k)
            .map_or(0.0, |i| self.entries[i].1)
    }

    /// Iterates over `(outcome, probability)` pairs in ascending
    /// outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (BitString, f64)> + '_ {
        self.entries
            .iter()
            .map(|&(k, p)| (BitString::from_u128(k, self.n_bits), p))
    }

    /// Sum of all stored probabilities (1 up to rounding).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.entries.iter().map(|&(_, p)| p).sum()
    }

    /// The mode: the most probable outcome of the distribution.
    ///
    /// **Tie-break guarantee:** when several outcomes share the maximum
    /// probability exactly, the one with the smallest packed key wins.
    /// The comparison is explicit (`p > best` or `p == best` with a
    /// smaller key), so the result does not depend on scan order,
    /// storage layout, or which kernel produced the probabilities —
    /// re-running a reconstruction always reports the same winner.
    /// `None` only for the empty distribution, which public
    /// constructors cannot produce.
    #[must_use]
    pub fn mode(&self) -> Option<(BitString, f64)> {
        let mut best: Option<(u128, f64)> = None;
        for &(k, p) in &self.entries {
            let better = match best {
                None => true,
                Some((bk, bp)) => p > bp || (p == bp && k < bk),
            };
            if better {
                best = Some((k, p));
            }
        }
        best.map(|(k, p)| (BitString::from_u128(k, self.n_bits), p))
    }

    /// Alias for [`mode`](Distribution::mode), kept for readability at
    /// call sites phrased around probability ("the most probable
    /// outcome"). Same deterministic tie-break.
    #[must_use]
    pub fn most_probable(&self) -> Option<(BitString, f64)> {
        self.mode()
    }

    /// The `k` most probable outcomes, descending by probability (ties
    /// broken toward smaller packed values). Shorter than `k` when the
    /// support is.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(BitString, f64)> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite probs")
                .then(a.0.cmp(&b.0))
        });
        sorted
            .into_iter()
            .take(k)
            .map(|(key, p)| (BitString::from_u128(key, self.n_bits), p))
            .collect()
    }

    /// The expectation `Σ_x P(x) · f(x)` of a function of the outcome.
    pub fn expectation<F: FnMut(BitString) -> f64>(&self, mut f: F) -> f64 {
        self.entries
            .iter()
            .map(|&(k, p)| p * f(BitString::from_u128(k, self.n_bits)))
            .sum()
    }

    /// Projects onto a sub-register: output bit `i` is input bit
    /// `qubits[i]`; probabilities that collide after projection merge.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty, repeats an index, or addresses a
    /// bit outside the register.
    #[must_use]
    pub fn marginal(&self, qubits: &[usize]) -> Distribution {
        let mut seen = 0u128;
        for &q in qubits {
            assert!(
                q < self.n_bits,
                "qubit {q} outside register of {} bits",
                self.n_bits
            );
            assert!(seen >> q & 1 == 0, "qubit {q} selected twice");
            seen |= 1 << q;
        }
        let width = qubits.len();
        let pairs = self.entries.iter().map(|&(k, p)| {
            let mut projected = 0u128;
            for (i, &q) in qubits.iter().enumerate() {
                projected |= (k >> q & 1) << i;
            }
            (BitString::from_u128(projected, width), p)
        });
        Distribution::from_probs(width, pairs).expect("projection preserves probability mass")
    }

    /// Samples one outcome according to the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BitString {
        let mut u: f64 = rng.gen::<f64>() * self.total_mass();
        for &(k, p) in &self.entries {
            if u < p {
                return BitString::from_u128(k, self.n_bits);
            }
            u -= p;
        }
        let (k, _) = *self.entries.last().expect("non-empty support");
        BitString::from_u128(k, self.n_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bs(s: &str) -> BitString {
        BitString::parse(s).unwrap()
    }

    #[test]
    fn from_probs_merges_and_normalizes() {
        let d = Distribution::from_probs(2, [(bs("10"), 1.0), (bs("01"), 2.0), (bs("10"), 1.0)])
            .unwrap();
        assert_eq!(d.len(), 2);
        assert!((d.prob(bs("10")) - 0.5).abs() < 1e-12);
        assert!((d.prob(bs("01")) - 0.5).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn key_and_key_bit_reassemble_the_limbs() {
        // A 100-bit support straddling the limb boundary.
        let hi = (0b1011u128 << 96) | (1u128 << 64);
        let lo = (1u128 << 63) | 0b101;
        let d = Distribution::from_probs(
            100,
            [
                (BitString::from_u128(lo, 100), 1.0),
                (BitString::from_u128(hi, 100), 1.0),
            ],
        )
        .unwrap();
        let mut keys = Vec::new();
        for i in 0..d.len() {
            let key = d.key(i);
            assert_eq!(
                key,
                u128::from(d.keys()[i]) | (u128::from(d.keys_hi()[i]) << 64)
            );
            keys.push(key);
        }
        keys.sort_unstable();
        assert_eq!(keys, [lo, hi]);
    }

    #[test]
    fn from_probs_drops_zero_weights() {
        let d = Distribution::from_probs(2, [(bs("00"), 0.0), (bs("11"), 2.0)]).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.prob(bs("00")), 0.0);
    }

    #[test]
    fn from_probs_rejects_bad_input() {
        assert_eq!(
            Distribution::from_probs(3, [(bs("10"), 1.0)]),
            Err(DistError::WidthMismatch { left: 3, right: 2 })
        );
        assert_eq!(
            Distribution::from_probs(2, [(bs("10"), -0.1)]),
            Err(DistError::InvalidProbability(-0.1))
        );
        assert!(matches!(
            Distribution::from_probs(2, [(bs("10"), f64::NAN)]),
            Err(DistError::InvalidProbability(p)) if p.is_nan()
        ));
        assert_eq!(
            Distribution::from_probs(2, std::iter::empty()),
            Err(DistError::EmptyDistribution)
        );
        assert_eq!(
            Distribution::from_probs(2, [(bs("10"), 0.0)]),
            Err(DistError::EmptyDistribution)
        );
    }

    #[test]
    fn entries_are_sorted_by_outcome() {
        let d = Distribution::from_probs(2, [(bs("11"), 0.2), (bs("00"), 0.5), (bs("10"), 0.3)])
            .unwrap();
        let keys: Vec<u128> = d.as_slice().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0b00, 0b10, 0b11]);
    }

    #[test]
    fn uniform_covers_everything() {
        let d = Distribution::uniform(4);
        assert_eq!(d.len(), 16);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert!((d.prob(bs("0110")) - 1.0 / 16.0).abs() < 1e-15);
    }

    #[test]
    fn point_mass_is_certain() {
        let d = Distribution::point_mass(bs("101"));
        assert_eq!(d.len(), 1);
        assert_eq!(d.prob(bs("101")), 1.0);
        assert_eq!(d.most_probable(), Some((bs("101"), 1.0)));
    }

    #[test]
    fn most_probable_breaks_ties_deterministically() {
        let d = Distribution::from_probs(2, [(bs("11"), 0.5), (bs("00"), 0.5)]).unwrap();
        assert_eq!(d.most_probable().unwrap().0, bs("00"));
    }

    #[test]
    fn mode_ties_go_to_smallest_key_regardless_of_insertion_order() {
        // Same support fed in both orders: the winner must not change.
        let forward =
            Distribution::from_probs(3, [(bs("010"), 1.0), (bs("110"), 1.0), (bs("001"), 0.5)])
                .unwrap();
        let reverse =
            Distribution::from_probs(3, [(bs("110"), 1.0), (bs("001"), 0.5), (bs("010"), 1.0)])
                .unwrap();
        assert_eq!(forward.mode().unwrap().0, bs("010"));
        assert_eq!(reverse.mode().unwrap().0, bs("010"));
        assert_eq!(forward.mode(), forward.most_probable());
    }

    #[test]
    fn soa_view_mirrors_as_slice() {
        let d = Distribution::from_probs(2, [(bs("11"), 0.2), (bs("00"), 0.5), (bs("10"), 0.3)])
            .unwrap();
        assert_eq!(d.keys().len(), d.len());
        assert_eq!(d.probs().len(), d.len());
        for (i, &(k, p)) in d.as_slice().iter().enumerate() {
            assert_eq!(d.keys()[i], k as u64);
            assert_eq!(d.keys_hi()[i], 0);
            assert!((d.probs()[i] - p).abs() < 1e-15);
        }
        // The SoA mirrors survive every constructor.
        let u = Distribution::uniform(3);
        assert_eq!(u.keys(), (0..8).collect::<Vec<u64>>().as_slice());
        let pm = Distribution::point_mass(bs("101"));
        assert_eq!(pm.keys(), &[0b101]);
        assert_eq!(pm.probs(), &[1.0]);
    }

    #[test]
    fn top_k_is_descending() {
        let d = Distribution::from_probs(
            3,
            [
                (bs("000"), 0.1),
                (bs("001"), 0.4),
                (bs("010"), 0.2),
                (bs("011"), 0.3),
            ],
        )
        .unwrap();
        let top = d.top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, bs("001"));
        assert_eq!(top[1].0, bs("011"));
        assert_eq!(top[2].0, bs("010"));
        assert_eq!(d.top_k(10).len(), 4);
    }

    #[test]
    fn expectation_weights_by_probability() {
        let d = Distribution::from_probs(2, [(bs("00"), 0.25), (bs("11"), 0.75)]).unwrap();
        let mean_weight = d.expectation(|x| f64::from(x.weight()));
        assert!((mean_weight - 1.5).abs() < 1e-12);
    }

    #[test]
    fn marginal_projects_and_merges() {
        let d = Distribution::from_probs(3, [(bs("111"), 0.7), (bs("011"), 0.3)]).unwrap();
        let m = d.marginal(&[0, 1]);
        assert_eq!(m.n_bits(), 2);
        assert!((m.prob(bs("11")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_follows_the_masses() {
        let d = Distribution::from_probs(2, [(bs("00"), 0.2), (bs("11"), 0.8)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 20_000;
        let ones = (0..trials)
            .filter(|_| d.sample(&mut rng) == bs("11"))
            .count();
        assert!((ones as f64 / f64::from(trials) - 0.8).abs() < 0.01);
    }

    #[test]
    fn from_raw_parts_round_trips_the_soa_views() {
        let d = Distribution::from_probs(2, [(bs("11"), 0.2), (bs("00"), 0.5), (bs("10"), 0.3)])
            .unwrap();
        let back = Distribution::from_raw_parts(
            d.n_bits(),
            d.keys().to_vec(),
            d.keys_hi().to_vec(),
            d.probs().to_vec(),
        )
        .unwrap();
        // Byte-identical: probabilities are stored as given.
        assert_eq!(back, d);
        // Wide keys split across both limbs survive too.
        let a = BitString::zeros(100).flip_bit(99).flip_bit(2);
        let b = BitString::zeros(100).flip_bit(70);
        let w = Distribution::from_probs(100, [(a, 0.25), (b, 0.75)]).unwrap();
        let back = Distribution::from_raw_parts(
            100,
            w.keys().to_vec(),
            w.keys_hi().to_vec(),
            w.probs().to_vec(),
        )
        .unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn from_raw_parts_validates_every_invariant() {
        // Width range.
        assert_eq!(
            Distribution::from_raw_parts(0, vec![], vec![], vec![]),
            Err(DistError::WidthOutOfRange(0))
        );
        // Ragged arrays.
        assert_eq!(
            Distribution::from_raw_parts(2, vec![0, 1], vec![0], vec![0.5, 0.5]),
            Err(DistError::RaggedRawParts {
                keys: 2,
                keys_hi: 1,
                values: 2
            })
        );
        // Empty support.
        assert_eq!(
            Distribution::from_raw_parts(2, vec![], vec![], vec![]),
            Err(DistError::EmptyDistribution)
        );
        // Key with bits beyond the width (low limb, and high limb at
        // narrow widths).
        assert_eq!(
            Distribution::from_raw_parts(2, vec![4], vec![0], vec![1.0]),
            Err(DistError::KeyOutOfRange(0))
        );
        assert_eq!(
            Distribution::from_raw_parts(2, vec![1], vec![1], vec![1.0]),
            Err(DistError::KeyOutOfRange(0))
        );
        // Unsorted and duplicated keys.
        assert_eq!(
            Distribution::from_raw_parts(2, vec![2, 1], vec![0, 0], vec![0.5, 0.5]),
            Err(DistError::UnsortedKeys(1))
        );
        assert_eq!(
            Distribution::from_raw_parts(2, vec![1, 1], vec![0, 0], vec![0.5, 0.5]),
            Err(DistError::UnsortedKeys(1))
        );
        // Non-positive and non-finite probabilities.
        assert_eq!(
            Distribution::from_raw_parts(2, vec![0, 1], vec![0, 0], vec![0.0, 1.0]),
            Err(DistError::InvalidProbability(0.0))
        );
        assert!(matches!(
            Distribution::from_raw_parts(2, vec![0], vec![0], vec![f64::NAN]),
            Err(DistError::InvalidProbability(p)) if p.is_nan()
        ));
        // Mass far from 1.
        assert_eq!(
            Distribution::from_raw_parts(2, vec![0, 1], vec![0, 0], vec![0.5, 0.1]),
            Err(DistError::NotNormalized(0.6))
        );
    }

    #[test]
    fn sixty_four_bit_support() {
        let base = BitString::ones(64);
        let d = Distribution::from_probs(64, [(base, 0.5), (base.flip_bit(63), 0.5)]).unwrap();
        assert_eq!(d.len(), 2);
        assert!((d.prob(base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wide_support_round_trips_through_limbs() {
        // 100-bit outcomes: high-limb bits must survive construction,
        // lookup, iteration, marginals and the SoA limb views.
        let a = BitString::zeros(100).flip_bit(99).flip_bit(2);
        let b = BitString::zeros(100).flip_bit(70);
        let d = Distribution::from_probs(100, [(a, 0.25), (b, 0.75)]).unwrap();
        assert_eq!(d.n_bits(), 100);
        assert!((d.prob(a) - 0.25).abs() < 1e-12);
        assert_eq!(d.mode().unwrap().0, b);
        // SoA limbs split as documented.
        let i = d.iter().position(|(x, _)| x == a).unwrap();
        assert_eq!(d.keys()[i], a.limbs()[0]);
        assert_eq!(d.keys_hi()[i], a.limbs()[1]);
        // Marginal across the limb boundary merges correctly.
        let m = d.marginal(&[2, 99]);
        assert!((m.prob(bs("11")) - 0.25).abs() < 1e-12);
        assert!((m.prob(bs("00")) - 0.75).abs() < 1e-12);
        // Expectation sees the wide weight.
        let mean_weight = d.expectation(|x| f64::from(x.weight()));
        assert!((mean_weight - (0.25 * 2.0 + 0.75 * 1.0)).abs() < 1e-12);
    }
}
