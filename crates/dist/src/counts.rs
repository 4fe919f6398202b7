//! Trial-count histograms: what a quantum job returns before
//! normalization.

use std::collections::BTreeMap;

use crate::bitstring::{BitString, MAX_BITS};
use crate::distribution::{validate_raw_keys, Distribution};
use crate::error::DistError;
use crate::fingerprint::Fingerprinter;

/// A histogram of measured outcomes over a fixed register width — the
/// raw result of running a circuit for some number of trials (shots).
///
/// Outcomes are keyed by their packed form (up to 128 bits) in a sorted
/// map, so iteration order, equality and [`Counts::to_distribution`]
/// are all deterministic.
///
/// # Example
///
/// ```
/// use hammer_dist::{BitString, Counts};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut counts = Counts::new(3)?;
/// counts.record(BitString::parse("111")?);
/// counts.record_n(BitString::parse("110")?, 9);
/// assert_eq!(counts.total(), 10);
/// assert_eq!(counts.count(BitString::parse("110")?), 9);
///
/// let dist = counts.to_distribution();
/// assert!((dist.prob(BitString::parse("110")?) - 0.9).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    n_bits: usize,
    counts: BTreeMap<u128, u64>,
    total: u64,
}

impl Counts {
    /// An empty histogram over `n_bits`-bit outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::WidthOutOfRange`] if `n_bits` is outside
    /// `1..=128`.
    pub fn new(n_bits: usize) -> Result<Self, DistError> {
        if !(1..=MAX_BITS).contains(&n_bits) {
            return Err(DistError::WidthOutOfRange(n_bits));
        }
        Ok(Self {
            n_bits,
            counts: BTreeMap::new(),
            total: 0,
        })
    }

    /// Rebuilds a histogram from sorted structure-of-arrays parts — the
    /// decode half of the serving layer's wire codec (the encode half
    /// streams [`iter`](Counts::iter), which yields ascending keys).
    /// Every invariant is validated instead of trusted, so a corrupt or
    /// hostile frame surfaces as a [`DistError`] rather than a panic. An
    /// all-empty set of arrays decodes to the empty histogram.
    ///
    /// # Errors
    ///
    /// * [`DistError::WidthOutOfRange`] if `n_bits` is outside `1..=128`;
    /// * [`DistError::RaggedRawParts`] if the arrays disagree on length;
    /// * [`DistError::KeyOutOfRange`] if a key has bits beyond `n_bits`;
    /// * [`DistError::UnsortedKeys`] if the packed keys are not strictly
    ///   ascending;
    /// * [`DistError::ZeroCount`] on a zero trial count (zero entries
    ///   are never stored, so they cannot round-trip);
    /// * [`DistError::CountOverflow`] if the total exceeds `u64`.
    pub fn from_raw_parts(
        n_bits: usize,
        keys: Vec<u64>,
        keys_hi: Vec<u64>,
        counts: Vec<u64>,
    ) -> Result<Self, DistError> {
        if !(1..=MAX_BITS).contains(&n_bits) {
            return Err(DistError::WidthOutOfRange(n_bits));
        }
        if keys.len() != keys_hi.len() || keys.len() != counts.len() {
            return Err(DistError::RaggedRawParts {
                keys: keys.len(),
                keys_hi: keys_hi.len(),
                values: counts.len(),
            });
        }
        validate_raw_keys(n_bits, &keys, &keys_hi)?;
        let mut total = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                return Err(DistError::ZeroCount(i));
            }
            total = total.checked_add(c).ok_or(DistError::CountOverflow)?;
        }
        let map = keys
            .iter()
            .zip(&keys_hi)
            .zip(&counts)
            .map(|((&lo, &hi), &c)| (u128::from(lo) | (u128::from(hi) << 64), c))
            .collect();
        Ok(Self {
            n_bits,
            counts: map,
            total,
        })
    }

    /// A stable fingerprint of the histogram's semantic content (width
    /// plus every sorted `(outcome, count)` pair, one
    /// [`Fingerprinter`] word per field): equal histograms fingerprint
    /// equal in every process, and any change to a count or outcome
    /// changes the fingerprint (up to hash collisions — see
    /// [`crate::fingerprint`], this is not a cryptographic hash).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprinter::new();
        h.write_usize(self.n_bits);
        h.write_usize(self.counts.len());
        for (&k, &c) in &self.counts {
            h.write_u64(k as u64);
            h.write_u64((k >> 64) as u64);
            h.write_u64(c);
        }
        h.finish()
    }

    /// Register width in bits.
    #[must_use]
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Records one trial.
    ///
    /// # Panics
    ///
    /// Panics if the outcome width differs from the histogram width.
    pub fn record(&mut self, outcome: BitString) {
        self.record_n(outcome, 1);
    }

    /// Records `n` identical trials.
    ///
    /// # Panics
    ///
    /// Panics if the outcome width differs from the histogram width.
    pub fn record_n(&mut self, outcome: BitString, n: u64) {
        assert_eq!(
            outcome.len(),
            self.n_bits,
            "outcome width {} does not match histogram width {}",
            outcome.len(),
            self.n_bits
        );
        if n == 0 {
            return;
        }
        *self.counts.entry(outcome.as_u128()).or_insert(0) += n;
        self.total += n;
    }

    /// Trials recorded for one outcome (0 if never seen).
    ///
    /// # Panics
    ///
    /// Panics if the outcome width differs from the histogram width.
    #[must_use]
    pub fn count(&self, outcome: BitString) -> u64 {
        assert_eq!(
            outcome.len(),
            self.n_bits,
            "outcome width {} does not match histogram width {}",
            outcome.len(),
            self.n_bits
        );
        self.counts.get(&outcome.as_u128()).copied().unwrap_or(0)
    }

    /// Total trials recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct outcomes observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no trial has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(outcome, trials)` pairs in ascending outcome
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (BitString, u64)> + '_ {
        self.counts
            .iter()
            .map(|(&k, &c)| (BitString::from_u128(k, self.n_bits), c))
    }

    /// Projects the histogram onto a sub-register: output bit `i` is
    /// input bit `qubits[i]`, and outcomes that collide after the
    /// projection merge their counts. This is how an ancilla is
    /// marginalized out of a measured histogram.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty, repeats an index, or addresses a
    /// bit outside the register.
    #[must_use]
    pub fn marginal(&self, qubits: &[usize]) -> Counts {
        let mut out = Counts::new(qubits.len()).expect("1..=128 selected qubits");
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
        for (&k, &c) in &self.counts {
            let mut projected = 0u128;
            for (i, &q) in qubits.iter().enumerate() {
                projected |= (k >> q & 1) << i;
            }
            out.record_n(BitString::from_u128(projected, qubits.len()), c);
        }
        out
    }

    /// Normalizes the histogram into a [`Distribution`].
    ///
    /// # Panics
    ///
    /// Panics if no trial has been recorded — an empty histogram has no
    /// distribution.
    #[must_use]
    pub fn to_distribution(&self) -> Distribution {
        assert!(self.total > 0, "cannot normalize an empty histogram");
        let pairs = self.iter().map(|(outcome, c)| (outcome, c as f64));
        Distribution::from_probs(self.n_bits, pairs)
            .expect("a non-empty histogram always has positive mass")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        BitString::parse(s).unwrap()
    }

    #[test]
    fn new_validates_width() {
        assert!(Counts::new(1).is_ok());
        assert!(Counts::new(64).is_ok());
        assert!(Counts::new(128).is_ok());
        assert_eq!(Counts::new(0), Err(DistError::WidthOutOfRange(0)));
        assert_eq!(Counts::new(129), Err(DistError::WidthOutOfRange(129)));
    }

    #[test]
    fn wide_histograms_accumulate_and_marginalize() {
        // 100-qubit outcomes with set bits in both limbs.
        let a = BitString::zeros(100).flip_bit(99).flip_bit(1);
        let b = BitString::zeros(100).flip_bit(99);
        let mut c = Counts::new(100).unwrap();
        c.record_n(a, 3);
        c.record_n(b, 7);
        assert_eq!(c.count(a), 3);
        assert_eq!(c.total(), 10);
        // Marginal onto {1, 99}: a → "11", b → "10" (bit 99 is output
        // bit 1).
        let m = c.marginal(&[1, 99]);
        assert_eq!(m.count(bs("11")), 3);
        assert_eq!(m.count(bs("10")), 7);
        // Normalization survives wide keys.
        let d = c.to_distribution();
        assert!((d.prob(b) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn from_raw_parts_round_trips_iter_order() {
        let mut c = Counts::new(100).unwrap();
        c.record_n(BitString::zeros(100).flip_bit(99), 7);
        c.record_n(BitString::zeros(100).flip_bit(1), 3);
        let (mut keys, mut keys_hi, mut counts) = (Vec::new(), Vec::new(), Vec::new());
        for (x, n) in c.iter() {
            let [lo, hi] = x.limbs();
            keys.push(lo);
            keys_hi.push(hi);
            counts.push(n);
        }
        let back = Counts::from_raw_parts(100, keys, keys_hi, counts).unwrap();
        assert_eq!(back, c);
        // The empty histogram round-trips too.
        let empty = Counts::from_raw_parts(4, vec![], vec![], vec![]).unwrap();
        assert_eq!(empty, Counts::new(4).unwrap());
        assert_eq!(empty.total(), 0);
    }

    #[test]
    fn from_raw_parts_validates_every_invariant() {
        assert_eq!(
            Counts::from_raw_parts(129, vec![], vec![], vec![]),
            Err(DistError::WidthOutOfRange(129))
        );
        assert_eq!(
            Counts::from_raw_parts(2, vec![0], vec![0, 0], vec![1]),
            Err(DistError::RaggedRawParts {
                keys: 1,
                keys_hi: 2,
                values: 1
            })
        );
        assert_eq!(
            Counts::from_raw_parts(2, vec![5], vec![0], vec![1]),
            Err(DistError::KeyOutOfRange(0))
        );
        assert_eq!(
            Counts::from_raw_parts(2, vec![1, 0], vec![0, 0], vec![1, 1]),
            Err(DistError::UnsortedKeys(1))
        );
        assert_eq!(
            Counts::from_raw_parts(2, vec![0, 1], vec![0, 0], vec![1, 0]),
            Err(DistError::ZeroCount(1))
        );
        assert_eq!(
            Counts::from_raw_parts(2, vec![0, 1], vec![0, 0], vec![u64::MAX, 1]),
            Err(DistError::CountOverflow)
        );
    }

    #[test]
    fn fingerprint_tracks_semantic_content() {
        let mut a = Counts::new(3).unwrap();
        a.record_n(bs("101"), 5);
        a.record_n(bs("010"), 2);
        // Same content, different insertion order: same fingerprint.
        let mut b = Counts::new(3).unwrap();
        b.record_n(bs("010"), 2);
        b.record_n(bs("101"), 5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A count change, an outcome change, or a width change each
        // move the fingerprint.
        let mut c = a.clone();
        c.record(bs("101"));
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = Counts::new(3).unwrap();
        d.record_n(bs("100"), 5);
        d.record_n(bs("010"), 2);
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_ne!(
            Counts::new(3).unwrap().fingerprint(),
            Counts::new(4).unwrap().fingerprint()
        );
    }

    #[test]
    fn record_accumulates() {
        let mut c = Counts::new(2).unwrap();
        c.record(bs("01"));
        c.record_n(bs("01"), 4);
        c.record_n(bs("11"), 5);
        c.record_n(bs("10"), 0); // no-op
        assert_eq!(c.count(bs("01")), 5);
        assert_eq!(c.count(bs("10")), 0);
        assert_eq!(c.total(), 10);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match histogram width")]
    fn record_rejects_wrong_width() {
        let mut c = Counts::new(2).unwrap();
        c.record(bs("011"));
    }

    #[test]
    fn iter_is_sorted_by_outcome() {
        let mut c = Counts::new(2).unwrap();
        c.record_n(bs("11"), 1);
        c.record_n(bs("00"), 2);
        c.record_n(bs("10"), 3);
        let keys: Vec<u64> = c.iter().map(|(x, _)| x.as_u64()).collect();
        assert_eq!(keys, vec![0b00, 0b10, 0b11]);
    }

    #[test]
    fn marginal_merges_collisions() {
        let mut c = Counts::new(3).unwrap();
        c.record_n(bs("111"), 7); // bits (q2,q1,q0) = (1,1,1)
        c.record_n(bs("011"), 3); // (0,1,1)
                                  // Keep qubits 0 and 1: both outcomes project to "11".
        let m = c.marginal(&[0, 1]);
        assert_eq!(m.n_bits(), 2);
        assert_eq!(m.count(bs("11")), 10);
        assert_eq!(m.total(), 10);
    }

    #[test]
    fn marginal_reorders_bits() {
        let mut c = Counts::new(3).unwrap();
        c.record_n(bs("011"), 1); // q0=1, q1=1, q2=0
                                  // Output bit 0 = q2, output bit 1 = q0.
        let m = c.marginal(&[2, 0]);
        assert_eq!(m.count(bs("10")), 1); // q0=1 -> bit 1, q2=0 -> bit 0
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn marginal_rejects_duplicates() {
        let c = Counts::new(3).unwrap();
        let _ = c.marginal(&[1, 1]);
    }

    #[test]
    fn to_distribution_normalizes() {
        let mut c = Counts::new(2).unwrap();
        c.record_n(bs("00"), 1);
        c.record_n(bs("11"), 3);
        let d = c.to_distribution();
        assert!((d.prob(bs("11")) - 0.75).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_histogram_has_no_distribution() {
        let _ = Counts::new(2).unwrap().to_distribution();
    }
}
