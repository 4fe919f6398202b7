//! Stochastic noise models: depolarizing gate errors and asymmetric
//! readout errors, the two mechanisms that dominate on the IBM and Google
//! machines the paper evaluates (§2.1, §5.2).

use hammer_dist::BitString;
use rand::Rng;

/// A single-qubit Pauli error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// Uniformly random non-identity Pauli — the error drawn by a
    /// single-qubit depolarizing channel conditioned on "an error
    /// happened".
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        match rng.gen_range(0..3u8) {
            0 => Self::X,
            1 => Self::Y,
            _ => Self::Z,
        }
    }

    /// True when the error flips the Z-basis measurement outcome.
    #[must_use]
    pub fn flips_measurement(self) -> bool {
        matches!(self, Self::X | Self::Y)
    }
}

/// A Pauli error on one or both operands of a gate: the fault drawn from a
/// (one- or two-qubit) depolarizing channel, conditioned on an error
/// occurring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauliFault {
    /// Error on the first operand, if any.
    pub first: Option<Pauli>,
    /// Error on the second operand of a two-qubit gate, if any.
    pub second: Option<Pauli>,
}

impl PauliFault {
    /// Random fault for a single-qubit gate (uniform over {X, Y, Z}).
    pub fn random_single<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            first: Some(Pauli::random(rng)),
            second: None,
        }
    }

    /// Random fault for a two-qubit gate: uniform over the 15
    /// non-identity two-qubit Paulis.
    pub fn random_double<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Draw from 1..16 interpreting the value base-4 as (P_a, P_b)
        // with 0 = I; 0 (= II) is excluded.
        let code = rng.gen_range(1..16u8);
        let decode = |c: u8| match c {
            0 => None,
            1 => Some(Pauli::X),
            2 => Some(Pauli::Y),
            _ => Some(Pauli::Z),
        };
        Self {
            first: decode(code / 4),
            second: decode(code % 4),
        }
    }
}

/// Asymmetric readout (measurement) error for one qubit.
///
/// On superconducting hardware `P(1→0)` is typically 2–3× larger than
/// `P(0→1)` because the excited state can relax during readout — the
/// state-dependent bias exploited by prior work the paper cites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutError {
    /// Probability that a true `0` is read as `1`.
    pub p0_to_1: f64,
    /// Probability that a true `1` is read as `0`.
    pub p1_to_0: f64,
}

impl ReadoutError {
    /// Perfect readout.
    #[must_use]
    pub const fn ideal() -> Self {
        Self {
            p0_to_1: 0.0,
            p1_to_0: 0.0,
        }
    }

    /// Creates a readout error, validating both probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 0.5]` — flip rates
    /// beyond one half would mean the assignment labels are swapped.
    #[must_use]
    pub fn new(p0_to_1: f64, p1_to_0: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&p0_to_1) && (0.0..=0.5).contains(&p1_to_0),
            "readout flip probabilities must lie in [0, 0.5]"
        );
        Self { p0_to_1, p1_to_0 }
    }

    /// Applies the error to one measured bit.
    pub fn apply<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> bool {
        let flip_p = if bit { self.p1_to_0 } else { self.p0_to_1 };
        if flip_p > 0.0 && rng.gen::<f64>() < flip_p {
            !bit
        } else {
            bit
        }
    }

    /// The 2×2 column-stochastic confusion matrix
    /// `M[measured][true]`, used by readout mitigation.
    #[must_use]
    pub fn confusion_matrix(&self) -> [[f64; 2]; 2] {
        [
            [1.0 - self.p0_to_1, self.p1_to_0],
            [self.p0_to_1, 1.0 - self.p1_to_0],
        ]
    }
}

/// The error model of a simulated device: depolarizing gate errors plus
/// per-qubit readout errors.
///
/// `p1` and `p2` are the base probabilities that a one-/two-qubit gate
/// suffers a (uniformly random, non-identity) Pauli fault on its
/// operands. These map onto the published average gate error rates of
/// the devices the paper uses. Real devices are far from homogeneous —
/// "not all qubits are created equal" — so the model optionally applies
/// deterministic per-qubit (`p1`) and per-coupler (`p2`) multiplicative
/// jitter: a device then has a few *bad* qubits and couplers whose
/// errors dominate, which is what produces the paper's *dominant
/// incorrect outcomes* (a specific coupler's bit-flip pattern showing up
/// with high frequency, §3.1/Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Base single-qubit fault rate.
    p1: f64,
    /// Base two-qubit fault rate.
    p2: f64,
    /// Log-scale half-width of the multiplicative gate-rate jitter
    /// (0 = homogeneous; ln 3 ≈ rates spanning base/3 … base·3).
    gate_spread: f64,
    /// Seed of the deterministic jitter.
    gate_seed: u64,
    /// Fault probability per qubit per idle moment (decoherence while
    /// waiting — the "idling errors" source the paper cites).
    idle: f64,
    readout: Vec<ReadoutError>,
}

impl NoiseModel {
    /// A noiseless model for `num_qubits` qubits.
    #[must_use]
    pub fn noiseless(num_qubits: usize) -> Self {
        Self {
            p1: 0.0,
            p2: 0.0,
            gate_spread: 0.0,
            gate_seed: 0,
            idle: 0.0,
            readout: vec![ReadoutError::ideal(); num_qubits],
        }
    }

    /// A uniform model: every qubit shares the same rates.
    ///
    /// # Panics
    ///
    /// Panics if `p1` or `p2` is outside `[0, 1]`.
    #[must_use]
    pub fn uniform(num_qubits: usize, p1: f64, p2: f64, readout: ReadoutError) -> Self {
        assert!((0.0..=1.0).contains(&p1), "p1 out of [0,1]");
        assert!((0.0..=1.0).contains(&p2), "p2 out of [0,1]");
        Self {
            p1,
            p2,
            gate_spread: 0.0,
            gate_seed: 0,
            idle: 0.0,
            readout: vec![readout; num_qubits],
        }
    }

    /// A uniform model with deterministic per-qubit readout variation:
    /// qubit `q`'s rates are scaled by a factor in `[1−spread, 1+spread]`
    /// derived from a hash of `(seed, q)`. This models the qubit-to-qubit
    /// variability of real devices without making presets stochastic.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is outside `[0, 1)` or rates are invalid.
    #[must_use]
    pub fn with_variation(
        num_qubits: usize,
        p1: f64,
        p2: f64,
        readout: ReadoutError,
        spread: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..1.0).contains(&spread), "spread out of [0,1)");
        let mut model = Self::uniform(num_qubits, p1, p2, readout);
        for (q, r) in model.readout.iter_mut().enumerate() {
            let jitter = 1.0 + spread * (2.0 * unit_hash(seed, q as u64) - 1.0);
            *r = ReadoutError::new((r.p0_to_1 * jitter).min(0.5), (r.p1_to_0 * jitter).min(0.5));
        }
        // Gate-rate jitter: rates span roughly base·e^{-s}..base·e^{+s}
        // with s = 2·spread, giving the heavy-ish tail real calibration
        // data shows (a handful of couplers 2-4x worse than the median).
        model.gate_spread = 2.0 * spread;
        model.gate_seed = seed ^ 0x6A7E;
        model
    }

    /// Single-qubit fault rate of gates on qubit `q` (base rate times
    /// this qubit's deterministic jitter).
    #[must_use]
    pub fn p1_for(&self, q: usize) -> f64 {
        (self.p1 * self.gate_jitter(q as u64)).min(1.0)
    }

    /// Two-qubit fault rate of gates on the coupler `(a, b)`
    /// (order-insensitive).
    #[must_use]
    pub fn p2_for(&self, a: usize, b: usize) -> f64 {
        let key = 0x2000_0000 | ((a.min(b) as u64) << 16) | a.max(b) as u64;
        (self.p2 * self.gate_jitter(key)).min(1.0)
    }

    /// Deterministic multiplicative jitter in `[e^-s, e^+s]`.
    fn gate_jitter(&self, key: u64) -> f64 {
        if self.gate_spread == 0.0 {
            return 1.0;
        }
        let u = unit_hash(self.gate_seed, key);
        (self.gate_spread * (2.0 * u - 1.0)).exp()
    }

    /// Number of qubits covered by the model.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.readout.len()
    }

    /// Base single-qubit gate fault probability (see [`NoiseModel::p1_for`]
    /// for the per-qubit rate).
    #[must_use]
    pub fn p1(&self) -> f64 {
        self.p1
    }

    /// Base two-qubit gate fault probability (see [`NoiseModel::p2_for`]
    /// for the per-coupler rate).
    #[must_use]
    pub fn p2(&self) -> f64 {
        self.p2
    }

    /// Fault probability per qubit per idle moment.
    #[must_use]
    pub fn idle(&self) -> f64 {
        self.idle
    }

    /// Returns a copy with the idle (decoherence-while-waiting) fault
    /// rate set. Idle faults fire per qubit per moment spent waiting,
    /// so SWAP-heavy routed circuits — which stretch the schedule —
    /// decohere more, independent of their gate count.
    ///
    /// # Panics
    ///
    /// Panics if `idle` is outside `[0, 1]`.
    #[must_use]
    pub fn with_idle_rate(mut self, idle: f64) -> Self {
        assert!((0.0..=1.0).contains(&idle), "idle rate out of [0,1]");
        self.idle = idle;
        self
    }

    /// Readout error of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn readout(&self, q: usize) -> ReadoutError {
        self.readout[q]
    }

    /// Replaces the readout error of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set_readout(&mut self, q: usize, error: ReadoutError) {
        self.readout[q] = error;
    }

    /// Applies per-qubit readout errors to a measured outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcome width differs from the model width.
    pub fn apply_readout<R: Rng + ?Sized>(&self, outcome: BitString, rng: &mut R) -> BitString {
        assert_eq!(
            outcome.len(),
            self.readout.len(),
            "outcome width does not match noise model width"
        );
        let mut out = outcome;
        for (q, r) in self.readout.iter().enumerate() {
            let measured = r.apply(out.bit(q), rng);
            if measured != out.bit(q) {
                out = out.flip_bit(q);
            }
        }
        out
    }

    /// True when all rates are zero.
    #[must_use]
    pub fn is_noiseless(&self) -> bool {
        self.p1 == 0.0
            && self.p2 == 0.0
            && self
                .readout
                .iter()
                .all(|r| r.p0_to_1 == 0.0 && r.p1_to_0 == 0.0)
    }
}

/// SplitMix64-style hash mapped to `[0, 1)`, used for deterministic
/// per-qubit variation.
fn unit_hash(seed: u64, x: u64) -> f64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pauli_random_covers_all() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..100 {
            match Pauli::random(&mut rng) {
                Pauli::X => seen[0] = true,
                Pauli::Y => seen[1] = true,
                Pauli::Z => seen[2] = true,
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn two_qubit_fault_never_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            let f = PauliFault::random_double(&mut rng);
            assert!(f.first.is_some() || f.second.is_some());
        }
    }

    #[test]
    fn measurement_flip_classification() {
        assert!(Pauli::X.flips_measurement());
        assert!(Pauli::Y.flips_measurement());
        assert!(!Pauli::Z.flips_measurement());
    }

    #[test]
    fn readout_error_statistics() {
        let r = ReadoutError::new(0.1, 0.3);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 20_000;
        let zero_flips = (0..trials).filter(|_| r.apply(false, &mut rng)).count();
        let one_flips = (0..trials).filter(|_| !r.apply(true, &mut rng)).count();
        assert!((zero_flips as f64 / trials as f64 - 0.1).abs() < 0.01);
        assert!((one_flips as f64 / trials as f64 - 0.3).abs() < 0.015);
    }

    #[test]
    #[should_panic(expected = "flip probabilities")]
    fn readout_error_validates() {
        let _ = ReadoutError::new(0.7, 0.1);
    }

    #[test]
    fn confusion_matrix_columns_sum_to_one() {
        let m = ReadoutError::new(0.05, 0.2).confusion_matrix();
        assert!((m[0][0] + m[1][0] - 1.0).abs() < 1e-12);
        assert!((m[0][1] + m[1][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noiseless_model_is_noiseless() {
        let m = NoiseModel::noiseless(4);
        assert!(m.is_noiseless());
        assert_eq!(m.num_qubits(), 4);
        let mut rng = StdRng::seed_from_u64(6);
        let b = BitString::parse("1010").unwrap();
        assert_eq!(m.apply_readout(b, &mut rng), b);
    }

    #[test]
    fn uniform_model_applies_flips() {
        let m = NoiseModel::uniform(8, 0.001, 0.01, ReadoutError::new(0.5, 0.5));
        let mut rng = StdRng::seed_from_u64(7);
        let b = BitString::zeros(8);
        // With 50% flip rates the expected Hamming weight after readout
        // is 4.
        let total: u32 = (0..2000)
            .map(|_| m.apply_readout(b, &mut rng).weight())
            .sum();
        let mean = f64::from(total) / 2000.0;
        assert!((mean - 4.0).abs() < 0.2, "mean flips {mean}");
    }

    #[test]
    fn uniform_model_has_homogeneous_gate_rates() {
        let m = NoiseModel::uniform(6, 0.001, 0.01, ReadoutError::ideal());
        for q in 0..6 {
            assert_eq!(m.p1_for(q), 0.001);
        }
        assert_eq!(m.p2_for(0, 5), 0.01);
        assert_eq!(m.p2_for(5, 0), 0.01);
    }

    #[test]
    fn varied_model_has_heterogeneous_gate_rates() {
        let m = NoiseModel::with_variation(8, 0.001, 0.02, ReadoutError::ideal(), 0.4, 99);
        // Per-coupler rates are order-insensitive and deterministic.
        assert_eq!(m.p2_for(2, 5), m.p2_for(5, 2));
        assert_eq!(m.p2_for(2, 5), m.p2_for(2, 5));
        // Rates vary across couplers but stay within the e^{±2·spread}
        // envelope of the base rate.
        let rates: Vec<f64> = (0..8)
            .flat_map(|a| (a + 1..8).map(move |b| (a, b)))
            .map(|(a, b)| m.p2_for(a, b))
            .collect();
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min, "couplers should differ");
        let envelope = (2.0f64 * 0.4).exp();
        assert!(max <= 0.02 * envelope + 1e-12);
        assert!(min >= 0.02 / envelope - 1e-12);
        // Same for single-qubit rates.
        let p1s: Vec<f64> = (0..8).map(|q| m.p1_for(q)).collect();
        assert!(p1s.iter().any(|&p| (p - p1s[0]).abs() > 1e-9));
    }

    #[test]
    fn variation_is_deterministic_and_bounded() {
        let a = NoiseModel::with_variation(16, 0.001, 0.01, ReadoutError::new(0.02, 0.04), 0.5, 11);
        let b = NoiseModel::with_variation(16, 0.001, 0.01, ReadoutError::new(0.02, 0.04), 0.5, 11);
        assert_eq!(a, b);
        let mut distinct = false;
        for q in 0..16 {
            let r = a.readout(q);
            assert!(r.p0_to_1 >= 0.01 && r.p0_to_1 <= 0.03);
            assert!(r.p1_to_0 >= 0.02 && r.p1_to_0 <= 0.06);
            if (r.p0_to_1 - 0.02).abs() > 1e-6 {
                distinct = true;
            }
        }
        assert!(distinct, "variation should perturb at least one qubit");
    }
}
