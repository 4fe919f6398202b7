//! Dense state-vector simulation — the ideal (noise-free) quantum
//! computer underneath both noise engines.

use hammer_dist::{BitString, Distribution};
use rand::Rng;

use crate::circuit::Circuit;
use crate::complex::{Complex, C_ONE, C_ZERO};
use crate::gates::Gate;
use crate::simkernel;

/// Maximum register width for dense simulation (`2^24` amplitudes ≈
/// 256 MiB). The paper's largest instance uses 24 qubits.
pub const MAX_DENSE_QUBITS: usize = 24;

/// A dense `2^n` state vector over [`Complex`] amplitudes.
///
/// Amplitude index `i` corresponds to the computational basis state whose
/// bit `q` (of `i`) is the value of qubit `q`, matching the
/// [`BitString`] convention.
///
/// # Example
///
/// ```
/// use hammer_sim::{Circuit, StateVector};
/// use hammer_dist::BitString;
///
/// // Prepare a Bell pair and inspect the outcome probabilities.
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let state = StateVector::from_circuit(&c);
/// let p00 = state.probability(BitString::parse("00").unwrap());
/// let p11 = state.probability(BitString::parse("11").unwrap());
/// assert!((p00 - 0.5).abs() < 1e-12);
/// assert!((p11 - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros initial state `|00…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or exceeds [`MAX_DENSE_QUBITS`].
    #[must_use]
    pub fn new(num_qubits: usize) -> Self {
        assert!(
            (1..=MAX_DENSE_QUBITS).contains(&num_qubits),
            "dense simulation limited to 1..={MAX_DENSE_QUBITS} qubits, got {num_qubits}"
        );
        let mut amps = vec![C_ZERO; 1 << num_qubits];
        amps[0] = C_ONE;
        Self { num_qubits, amps }
    }

    /// Runs `circuit` on `|00…0⟩` and returns the final state.
    #[must_use]
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut sv = Self::new(circuit.num_qubits());
        sv.apply_circuit(circuit);
        sv
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Copies another state's amplitudes into this one's buffer —
    /// the allocation-free `clone` the trajectory engine uses to fork a
    /// checkpointed prefix per faulty trial.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn copy_from(&mut self, other: &StateVector) {
        assert_eq!(self.num_qubits, other.num_qubits, "state width mismatch");
        self.amps.copy_from_slice(&other.amps);
    }

    /// Raw amplitudes, index = basis state.
    #[must_use]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable raw amplitudes, for driving `simkernel::reference`
    /// directly.
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// Amplitude of a single basis state.
    ///
    /// # Panics
    ///
    /// Panics if the width differs.
    #[must_use]
    pub fn amplitude(&self, basis: BitString) -> Complex {
        assert_eq!(basis.len(), self.num_qubits, "basis width mismatch");
        self.amps[basis.as_u64() as usize]
    }

    /// Measurement probability of a single basis state.
    ///
    /// # Panics
    ///
    /// Panics if the width differs.
    #[must_use]
    pub fn probability(&self, basis: BitString) -> f64 {
        self.amplitude(basis).norm_sqr()
    }

    /// `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits, "state width mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Squared norm of the state (1.0 up to rounding for unitary
    /// circuits).
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Applies a whole circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit register is wider than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit of {} qubits applied to {}-qubit state",
            circuit.num_qubits(),
            self.num_qubits
        );
        for &g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// Applies a single gate with the specialized serial kernels.
    ///
    /// # Panics
    ///
    /// Panics if a gate operand is out of range.
    pub fn apply_gate(&mut self, gate: Gate) {
        simkernel::specialized::apply_gate(&mut self.amps, gate);
    }

    /// Applies a 2×2 unitary to qubit `q` (the generic dense butterfly —
    /// gates with specialized kernels go through [`Self::apply_gate`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_single_qubit(&mut self, q: usize, m: [[Complex; 2]; 2]) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        simkernel::reference::apply_single_qubit(&mut self.amps, q, m);
    }

    /// Measurement probabilities of every basis state (dense, length
    /// `2^n`).
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Sparse measurement distribution, dropping basis states with
    /// probability below `tol` and renormalizing.
    ///
    /// # Panics
    ///
    /// Panics if every amplitude falls below `tol` (a sign of a
    /// non-normalized state).
    #[must_use]
    pub fn to_distribution(&self, tol: f64) -> Distribution {
        let pairs = self.amps.iter().enumerate().filter_map(|(i, a)| {
            let p = a.norm_sqr();
            (p >= tol).then(|| (BitString::new(i as u64, self.num_qubits), p))
        });
        Distribution::from_probs(self.num_qubits, pairs).expect("state vector has probability mass")
    }

    /// Samples one measurement outcome in the computational basis.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BitString {
        let mut u: f64 = rng.gen::<f64>() * self.norm_sqr();
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if u < p {
                return BitString::new(i as u64, self.num_qubits);
            }
            u -= p;
        }
        BitString::new((self.amps.len() - 1) as u64, self.num_qubits)
    }
}

/// Simulates `circuit` without noise and returns the sparse output
/// distribution (basis states below `1e-12` are pruned).
///
/// # Example
///
/// ```
/// use hammer_sim::{simulate_ideal, Circuit};
///
/// let mut ghz = Circuit::new(3);
/// ghz.h(0).cx(0, 1).cx(1, 2);
/// let dist = simulate_ideal(&ghz);
/// assert_eq!(dist.len(), 2); // |000⟩ and |111⟩
/// ```
#[must_use]
pub fn simulate_ideal(circuit: &Circuit) -> Distribution {
    StateVector::from_circuit(circuit).to_distribution(1e-12)
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
    fn initial_state_is_all_zeros() {
        let sv = StateVector::new(3);
        assert!((sv.probability(bs("000")) - 1.0).abs() < 1e-12);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_creates_superposition() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probability(bs("0")) - 0.5).abs() < 1e-12);
        assert!((sv.probability(bs("1")) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn x_flips_basis_state() {
        let mut c = Circuit::new(2);
        c.x(1);
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probability(bs("10")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probability(bs("00")) - 0.5).abs() < 1e-12);
        assert!((sv.probability(bs("11")) - 0.5).abs() < 1e-12);
        assert!(sv.probability(bs("01")) < 1e-12);
        assert!(sv.probability(bs("10")) < 1e-12);
    }

    #[test]
    fn ghz_keeps_two_branches() {
        let mut c = Circuit::new(5);
        c.h(0);
        for q in 0..4 {
            c.cx(q, q + 1);
        }
        let d = simulate_ideal(&c);
        assert_eq!(d.len(), 2);
        assert!((d.prob(bs("00000")) - 0.5).abs() < 1e-12);
        assert!((d.prob(bs("11111")) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        c.cx(0, 1).cz(1, 2).swap(2, 3);
        c.rx(0, 0.3).ry(1, -0.9).rz(2, 1.7).t(3).s(0);
        c.zz(0, 3, 0.7);
        let sv = StateVector::from_circuit(&c);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn circuit_dagger_returns_to_zero() {
        let mut u = Circuit::new(3);
        u.h(0)
            .t(1)
            .cx(0, 1)
            .ry(2, 0.77)
            .cz(1, 2)
            .rz(0, -0.4)
            .s(2)
            .zz(0, 2, 0.21);
        let mut full = Circuit::new(3);
        full.append(&u);
        full.append(&u.dagger());
        let sv = StateVector::from_circuit(&full);
        assert!((sv.probability(bs("000")) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cz_is_symmetric() {
        let mut a = Circuit::new(2);
        a.h(0).h(1).cz(0, 1);
        let mut b = Circuit::new(2);
        b.h(0).h(1).cz(1, 0);
        let sa = StateVector::from_circuit(&a);
        let sb = StateVector::from_circuit(&b);
        let overlap = sa.inner_product(&sb).abs();
        assert!((overlap - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.x(0).swap(0, 1);
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probability(bs("10")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zz_decomposition_matches_primitive() {
        let gamma = 0.83;
        let mut direct = Circuit::new(2);
        direct.h(0).h(1).zz(0, 1, gamma);
        let mut decomposed = Circuit::new(2);
        decomposed.h(0).h(1);
        decomposed.append(&{
            let mut z = Circuit::new(2);
            z.zz(0, 1, gamma);
            z.decompose_to_cx()
        });
        let sa = StateVector::from_circuit(&direct);
        let sb = StateVector::from_circuit(&decomposed);
        // Equal up to global phase: |⟨a|b⟩| = 1.
        assert!((sa.inner_product(&sb).abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn swap_decomposition_matches_primitive() {
        let mut direct = Circuit::new(2);
        direct.h(0).t(0).swap(0, 1);
        let decomposed = direct.decompose_to_cx();
        let sa = StateVector::from_circuit(&direct);
        let sb = StateVector::from_circuit(&decomposed);
        assert!((sa.inner_product(&sb).abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cz_decomposition_matches_primitive() {
        let mut direct = Circuit::new(2);
        direct.h(0).h(1).cz(0, 1);
        let decomposed = direct.decompose_to_cx();
        let sa = StateVector::from_circuit(&direct);
        let sb = StateVector::from_circuit(&decomposed);
        assert!((sa.inner_product(&sb).abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(9);
        let mut zeros = 0u32;
        let trials = 2000;
        for _ in 0..trials {
            let s = sv.sample(&mut rng);
            assert!(s == bs("00") || s == bs("11"));
            if s == bs("00") {
                zeros += 1;
            }
        }
        let frac = f64::from(zeros) / f64::from(trials);
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn to_distribution_prunes_and_normalizes() {
        let mut c = Circuit::new(2);
        c.h(0);
        let d = StateVector::from_circuit(&c).to_distribution(1e-12);
        assert_eq!(d.len(), 2);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }
}
