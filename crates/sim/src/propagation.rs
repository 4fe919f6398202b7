//! Clifford-skeleton Pauli-fault propagation: an approximate noise
//! engine at dense widths.
//!
//! A trial's sampled Pauli faults are conjugated *classically* through
//! the remaining gates as one Pauli frame (the shared fault walk in
//! `faults.rs`): Clifford gates (`H`, `S`, `√X`, `CX`, `CZ`, `SWAP`, and
//! `Rz` at multiples of `π/2`) transform Paulis exactly; non-Clifford
//! rotations (`Rx/Ry`, other `Rz` angles, `T`, `ZZ(γ)`) are
//! approximated as identity for fault transport. At measurement, the
//! frame's X component is XORed onto a sample drawn from the *ideal*
//! output distribution, so each trial costs O(gates) and no state
//! evolution.
//!
//! This is the textbook Pauli-propagation approximation. It preserves
//! exactly the two mechanisms the paper's Hamming-behavior observations
//! rest on: a small number of local faults flips few measured bits, and
//! deeper circuits with more entangling gates spread each fault onto
//! more qubits (growing EHD, §7). It is not a wide-register engine: the
//! ideal distribution comes from a dense state vector, so circuits are
//! capped at [`crate::MAX_DENSE_QUBITS`] qubits. The engine is
//! cross-validated against [`crate::TrajectoryEngine`] in the
//! integration suite.

use hammer_dist::{BitString, Counts};
use rand::{Rng, RngCore};

use crate::circuit::Circuit;
use crate::device::DeviceModel;
use crate::engine::NoiseEngine;
use crate::error::SimError;
use crate::faults::{flip_mask, FaultPlan};
use crate::gates::Gate;
use crate::noise::Pauli;
use crate::sampler::AliasSampler;
use crate::statevector::StateVector;
use crate::trajectory::validate_dense;

/// A Pauli operator on the whole register, tracked as X/Z bit masks
/// (`Y` on qubit `q` sets bit `q` in both masks; 128-bit masks cover
/// the full [`hammer_dist::BitString`] width range, so the stabilizer
/// engine's wide fault trajectories reuse this type). Phases are
/// irrelevant for measurement statistics and are not tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PauliMask {
    /// Qubits carrying an X component (these flip Z-basis outcomes).
    pub x: u128,
    /// Qubits carrying a Z component.
    pub z: u128,
}

impl PauliMask {
    /// The identity (no error).
    #[must_use]
    pub const fn identity() -> Self {
        Self { x: 0, z: 0 }
    }

    /// A single-qubit Pauli on `q`.
    #[must_use]
    pub fn single(p: Pauli, q: usize) -> Self {
        let bit = 1u128 << q;
        match p {
            Pauli::X => Self { x: bit, z: 0 },
            Pauli::Y => Self { x: bit, z: bit },
            Pauli::Z => Self { x: 0, z: bit },
        }
    }

    /// Composes two Pauli masks (multiplication up to phase = XOR).
    #[must_use]
    pub fn compose(self, other: Self) -> Self {
        Self {
            x: self.x ^ other.x,
            z: self.z ^ other.z,
        }
    }

    /// Conjugates the mask through one gate: `P ← G P G†` (up to phase).
    /// Non-Clifford gates are approximated as identity; `Rz` at
    /// multiples of `π/2` (a Clifford phase gate, see
    /// [`Gate::rz_half_pi_steps`]) is transported exactly.
    #[must_use]
    pub fn conjugate_through(self, gate: Gate) -> Self {
        let Self { mut x, mut z } = self;
        match gate {
            Gate::H(q) => {
                // H: X ↔ Z.
                let bit = 1u128 << q;
                let xb = x & bit;
                let zb = z & bit;
                x = (x & !bit) | zb;
                z = (z & !bit) | xb;
            }
            Gate::S(q) | Gate::Sdg(q) => {
                // S: X → ±Y, Y → ∓X, Z → Z ⇒ z ^= x on q.
                z ^= x & (1u128 << q);
            }
            Gate::SqrtX(q) | Gate::SqrtXdg(q) => {
                // √X: Z → ∓Y, Y → ±Z, X → X ⇒ x ^= z on q.
                x ^= z & (1u128 << q);
            }
            Gate::Cx(c, t) => {
                // X_c → X_c X_t ; Z_t → Z_c Z_t.
                let cbit = 1u128 << c;
                let tbit = 1u128 << t;
                if x & cbit != 0 {
                    x ^= tbit;
                }
                if z & tbit != 0 {
                    z ^= cbit;
                }
            }
            Gate::Cz(a, b) => {
                // X_a → X_a Z_b ; X_b → Z_a X_b.
                let abit = 1u128 << a;
                let bbit = 1u128 << b;
                if x & abit != 0 {
                    z ^= bbit;
                }
                if x & bbit != 0 {
                    z ^= abit;
                }
            }
            Gate::Swap(a, b) => {
                let abit = 1u128 << a;
                let bbit = 1u128 << b;
                let xa = x & abit != 0;
                let xb = x & bbit != 0;
                if xa != xb {
                    x ^= abit | bbit;
                }
                let za = z & abit != 0;
                let zb = z & bbit != 0;
                if za != zb {
                    z ^= abit | bbit;
                }
            }
            // Rz at an odd multiple of π/2 is S or S† up to phase; even
            // multiples are Z or the identity (no Pauli transport either
            // way).
            Gate::Rz(q, theta) => {
                if let Some(steps) = Gate::rz_half_pi_steps(theta) {
                    if steps % 2 == 1 {
                        z ^= x & (1u128 << q);
                    }
                }
            }
            // Paulis commute with Paulis up to phase.
            Gate::X(_) | Gate::Y(_) | Gate::Z(_) => {}
            // Non-Clifford: identity approximation for fault transport.
            Gate::T(_) | Gate::Tdg(_) | Gate::Rx(..) | Gate::Ry(..) | Gate::Zz(..) => {}
        }
        Self { x, z }
    }
}

/// The approximate Pauli-propagation noise engine: O(gates) per trial
/// over an ideal sample, capped at [`crate::MAX_DENSE_QUBITS`] qubits.
///
/// # Example
///
/// ```
/// use hammer_sim::{Circuit, DeviceModel, PropagationEngine};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bv = Circuit::new(12);
/// // ... build a 12-qubit circuit ...
/// # bv.h(0).cx(0, 11);
/// let device = DeviceModel::ibm_manhattan(12);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let counts = PropagationEngine::new(&device).sample(&bv, 8192, &mut rng)?;
/// assert_eq!(counts.total(), 8192);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PropagationEngine<'a> {
    device: &'a DeviceModel,
}

impl<'a> PropagationEngine<'a> {
    /// Creates an engine bound to a device model.
    #[must_use]
    pub fn new(device: &'a DeviceModel) -> Self {
        Self { device }
    }

    /// The device this engine executes on.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        self.device
    }

    /// Executes `circuit` for `trials` trials.
    ///
    /// # Errors
    ///
    /// See [`NoiseEngine::sample_counts`].
    pub fn sample<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
    ) -> Result<Counts, SimError> {
        validate_dense(self.device, circuit, trials)?;
        let n = circuit.num_qubits();
        let noise = self.device.noise();

        // Ideal sparse output distribution + O(1) sampler over it.
        let ideal = StateVector::from_circuit(circuit).to_distribution(1e-14);
        let entries = ideal.as_slice();
        let weights: Vec<f64> = entries.iter().map(|&(_, p)| p).collect();
        let ideal_sampler = AliasSampler::new(&weights).expect("normalized distribution");

        let plan = FaultPlan::new(circuit, noise);
        let mut counts = Counts::new(n).expect("validated width");
        let mut faults = Vec::new();
        for _ in 0..trials {
            faults.clear();
            plan.sample_faults_per_moment(&mut faults, rng);
            // Every fault of the trial walks to measurement in one frame.
            let flips = flip_mask(circuit, &faults);
            let ideal_key = entries[ideal_sampler.sample(rng)].0;
            let outcome = BitString::from_u128(ideal_key ^ flips, n);
            counts.record(noise.apply_readout(outcome, rng));
        }
        Ok(counts)
    }
}

impl NoiseEngine for PropagationEngine<'_> {
    fn engine_name(&self) -> &'static str {
        "propagation"
    }

    fn sample_counts(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut dyn RngCore,
    ) -> Result<Counts, SimError> {
        self.sample(circuit, trials, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_dist::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_pauli_masks() {
        let m = PauliMask::single(Pauli::Y, 3);
        assert_eq!(m.x, 0b1000);
        assert_eq!(m.z, 0b1000);
        let m = PauliMask::single(Pauli::Z, 0);
        assert_eq!(m.x, 0);
        assert_eq!(m.z, 1);
    }

    #[test]
    fn hadamard_swaps_x_and_z() {
        let x = PauliMask::single(Pauli::X, 1);
        let after = x.conjugate_through(Gate::H(1));
        assert_eq!(after, PauliMask::single(Pauli::Z, 1));
        // Y is preserved up to sign.
        let y = PauliMask::single(Pauli::Y, 1);
        assert_eq!(y.conjugate_through(Gate::H(1)), y);
        // H on another qubit does nothing.
        assert_eq!(x.conjugate_through(Gate::H(0)), x);
    }

    #[test]
    fn cx_spreads_x_from_control_to_target() {
        let x = PauliMask::single(Pauli::X, 0);
        let after = x.conjugate_through(Gate::Cx(0, 1));
        assert_eq!(after.x, 0b11);
        assert_eq!(after.z, 0);
        // X on the target stays put.
        let xt = PauliMask::single(Pauli::X, 1);
        assert_eq!(xt.conjugate_through(Gate::Cx(0, 1)), xt);
        // Z propagates target → control.
        let zt = PauliMask::single(Pauli::Z, 1);
        let after = zt.conjugate_through(Gate::Cx(0, 1));
        assert_eq!(after.z, 0b11);
        assert_eq!(after.x, 0);
    }

    #[test]
    fn cz_maps_x_to_xz() {
        let x = PauliMask::single(Pauli::X, 0);
        let after = x.conjugate_through(Gate::Cz(0, 1));
        assert_eq!(after.x, 0b01);
        assert_eq!(after.z, 0b10);
    }

    #[test]
    fn s_and_sqrtx_rules() {
        // S: X → Y.
        let x = PauliMask::single(Pauli::X, 0);
        assert_eq!(
            x.conjugate_through(Gate::S(0)),
            PauliMask::single(Pauli::Y, 0)
        );
        // √X: Z → Y (up to sign).
        let z = PauliMask::single(Pauli::Z, 0);
        assert_eq!(
            z.conjugate_through(Gate::SqrtX(0)),
            PauliMask::single(Pauli::Y, 0)
        );
    }

    #[test]
    fn swap_moves_the_error() {
        let y = PauliMask::single(Pauli::Y, 0);
        assert_eq!(
            y.conjugate_through(Gate::Swap(0, 2)),
            PauliMask::single(Pauli::Y, 2)
        );
    }

    #[test]
    fn conjugation_is_involutive_for_self_inverse_cliffords() {
        // H, CX, CZ, SWAP are self-inverse: conjugating twice restores.
        let masks = [
            PauliMask::single(Pauli::X, 0),
            PauliMask::single(Pauli::Y, 1),
            PauliMask::single(Pauli::Z, 2).compose(PauliMask::single(Pauli::X, 0)),
        ];
        let gates = [Gate::H(0), Gate::Cx(0, 1), Gate::Cz(1, 2), Gate::Swap(0, 2)];
        for m in masks {
            for g in gates {
                assert_eq!(
                    m.conjugate_through(g).conjugate_through(g),
                    m,
                    "{g} not involutive on {m:?}"
                );
            }
        }
    }

    #[test]
    fn noiseless_device_reproduces_ideal() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let device = DeviceModel::noiseless(3);
        let engine = PropagationEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(21);
        let d = engine.sample(&c, 4000, &mut rng).unwrap().to_distribution();
        assert_eq!(d.len(), 2);
        assert!((d.prob(BitString::zeros(3)) - 0.5).abs() < 0.05);
    }

    #[test]
    fn deeper_circuits_have_larger_ehd() {
        // The defining §7 behavior: depth spreads faults.
        let device = DeviceModel::ibm_manhattan(8);
        let engine = PropagationEngine::new(&device);
        let correct = [BitString::zeros(8)];
        let mut ehds = Vec::new();
        for reps in [1usize, 4, 12] {
            // An identity-equivalent ladder circuit of growing depth.
            let mut c = Circuit::new(8);
            for _ in 0..reps {
                for q in 0..7 {
                    c.cx(q, q + 1);
                }
            }
            for _ in 0..reps {
                for q in (0..7).rev() {
                    c.cx(q, q + 1);
                }
            }
            let mut rng = StdRng::seed_from_u64(31);
            let d = engine.sample(&c, 6000, &mut rng).unwrap().to_distribution();
            ehds.push(metrics::ehd(&d, &correct));
        }
        assert!(
            ehds[0] < ehds[1] && ehds[1] < ehds[2],
            "EHD should grow with depth: {ehds:?}"
        );
        // But stay below the uniform-error value n/2 = 4.
        assert!(ehds[2] < 4.0, "EHD {} should stay below n/2", ehds[2]);
    }

    #[test]
    fn idle_noise_matches_trajectory_engine() {
        // Same idle-only experiment on both engines: flip statistics of
        // the fully idle qubit must agree (X gates are Clifford, so the
        // propagation engine is exact here).
        let mut c = Circuit::new(2);
        for _ in 0..12 {
            c.x(0).x(0);
        }
        let coupling = crate::coupling::CouplingMap::full(2);
        let noise =
            crate::noise::NoiseModel::uniform(2, 0.0, 0.0, crate::noise::ReadoutError::ideal())
                .with_idle_rate(0.01);
        let device = DeviceModel::new("idle-only", coupling, noise);
        let flip_rate = |dist: &hammer_dist::Distribution| -> f64 {
            dist.iter().filter(|(x, _)| x.bit(1)).map(|(_, p)| p).sum()
        };
        let p_prop = flip_rate(
            &PropagationEngine::new(&device)
                .sample(&c, 20_000, &mut StdRng::seed_from_u64(3))
                .unwrap()
                .to_distribution(),
        );
        let p_traj = flip_rate(
            &crate::trajectory::TrajectoryEngine::new(&device)
                .sample(&c, 20_000, &mut StdRng::seed_from_u64(3))
                .unwrap()
                .to_distribution(),
        );
        assert!(p_prop > 0.05, "idle noise visible: {p_prop}");
        assert!(
            (p_prop - p_traj).abs() < 0.02,
            "engines disagree: {p_prop} vs {p_traj}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4);
        let device = DeviceModel::ibm_paris(5);
        let engine = PropagationEngine::new(&device);
        let a = engine
            .sample(&c, 800, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let b = engine
            .sample(&c, 800, &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_trials_rejected() {
        let device = DeviceModel::noiseless(2);
        let engine = PropagationEngine::new(&device);
        let mut c = Circuit::new(2);
        c.h(0);
        assert_eq!(
            engine.sample(&c, 0, &mut StdRng::seed_from_u64(1)),
            Err(SimError::ZeroTrials)
        );
    }
}
