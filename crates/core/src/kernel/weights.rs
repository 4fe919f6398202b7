//! The zero-padded weight table that makes every inner loop branchless.

/// A per-distance weight table padded to [`WeightTable::SLOTS`] = 129
/// entries, shared by the exact kernel at every limb count and by the
/// ANN candidate pass.
///
/// The Hamming distance of two keys of at most two `u64` limbs is a sum
/// of per-limb XOR popcounts, always in `0..=128`. Algorithm 1 only
/// weighs distances `d < max_d`, and a `d < max_d` compare-and-branch is
/// close to a coin flip on wide random supports (for 64-bit keys the
/// distance distribution is centered on the usual `max_d = n/2`
/// cutoff), so the branch predictor can do nothing with it.
///
/// Padding the caller's `max_d`-long weight vector with zeros out to
/// all 129 slots removes the cutoff from the instruction stream: the
/// loop indexes `W[d]` unconditionally, and any distance at or beyond
/// the cutoff lands on a `0.0` weight and contributes nothing.
/// 129 × 8 bytes ≈ 1 KiB stays resident in L1 for the whole pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WeightTable {
    table: [f64; Self::SLOTS],
}

impl WeightTable {
    /// Number of slots: every possible distance of two-limb keys.
    pub(crate) const SLOTS: usize = 129;

    /// Pads `weights` (the `max_d`-long vector of Algorithm 1 line 12)
    /// with zeros to 129 slots.
    ///
    /// Entries beyond slot 128 are ignored: no distance above 128 can
    /// occur, so dropping those weights is exact, not an approximation.
    pub(crate) fn new(weights: &[f64]) -> Self {
        let mut table = [0.0; Self::SLOTS];
        for (slot, &w) in table.iter_mut().zip(weights) {
            *slot = w;
        }
        Self { table }
    }

    /// The weight of Hamming distance `d`.
    ///
    /// Callers feed a sum of at most two `count_ones` results, whose
    /// value range lets LLVM remove the bound check in the hot loop.
    #[inline(always)]
    pub(crate) fn get(&self, d: usize) -> f64 {
        self.table[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_with_zeros() {
        let w = WeightTable::new(&[0.5, 0.25]);
        assert_eq!(w.get(0), 0.5);
        assert_eq!(w.get(1), 0.25);
        for d in 2..WeightTable::SLOTS {
            assert_eq!(w.get(d), 0.0, "slot {d} must be zero-padded");
        }
    }

    #[test]
    fn empty_weights_are_all_zero() {
        let w = WeightTable::new(&[]);
        assert!(w.table.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn oversized_weights_are_truncated_exactly() {
        // Distances above 128 cannot occur, so truncation is lossless.
        let long: Vec<f64> = (0..140).map(f64::from).collect();
        let w = WeightTable::new(&long);
        assert_eq!(w.get(128), 128.0);
        assert_eq!(w.table.len(), 129);
    }
}
