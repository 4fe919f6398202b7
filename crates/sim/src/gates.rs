//! The gate set: the native and composite operations the circuits in the
//! paper use (Qiskit/IBM basis plus the diagonal `ZZ` interaction QAOA
//! needs).

use std::fmt;

use crate::complex::{Complex, C_I, C_ONE, C_ZERO};

/// A quantum gate acting on one or two qubits.
///
/// Qubit operands are indices into the circuit's qubit register. Rotation
/// angles are in radians.
///
/// The set covers everything the paper's benchmarks need: the Clifford
/// generators (`H`, `S`, `CX`, `CZ`, …), the parametric rotations of
/// QAOA and the random-unitary study (`Rx`, `Ry`, `Rz`), and the
/// two-qubit phase interaction [`Gate::Zz`] implementing
/// `exp(−i γ Z⊗Z)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli-X (NOT).
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// Phase gate `S = diag(1, i)`.
    S(usize),
    /// Inverse phase gate `S† = diag(1, −i)`.
    Sdg(usize),
    /// T gate `diag(1, e^{iπ/4})`.
    T(usize),
    /// Inverse T gate.
    Tdg(usize),
    /// Square root of X (the IBM native `√X`).
    SqrtX(usize),
    /// Inverse square root of X.
    SqrtXdg(usize),
    /// Rotation about X: `exp(−i θ X / 2)`.
    Rx(usize, f64),
    /// Rotation about Y: `exp(−i θ Y / 2)`.
    Ry(usize, f64),
    /// Rotation about Z: `exp(−i θ Z / 2)`.
    Rz(usize, f64),
    /// Controlled-NOT (control, target).
    Cx(usize, usize),
    /// Controlled-Z (symmetric in its operands).
    Cz(usize, usize),
    /// SWAP.
    Swap(usize, usize),
    /// Ising interaction `exp(−i γ Z⊗Z)` — the QAOA cost-layer primitive.
    Zz(usize, usize, f64),
}

/// The operands of a gate: one or two qubit indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateQubits {
    /// A single-qubit gate on the given qubit.
    One(usize),
    /// A two-qubit gate on the given pair.
    Two(usize, usize),
}

impl GateQubits {
    /// The operands as a small vector for uniform iteration.
    #[must_use]
    pub fn to_vec(self) -> Vec<usize> {
        match self {
            Self::One(a) => vec![a],
            Self::Two(a, b) => vec![a, b],
        }
    }

    /// Largest operand index.
    #[must_use]
    pub fn max_index(self) -> usize {
        match self {
            Self::One(a) => a,
            Self::Two(a, b) => a.max(b),
        }
    }
}

impl Gate {
    /// The qubit operands of this gate.
    #[must_use]
    pub fn qubits(&self) -> GateQubits {
        use Gate::*;
        match *self {
            H(q)
            | X(q)
            | Y(q)
            | Z(q)
            | S(q)
            | Sdg(q)
            | T(q)
            | Tdg(q)
            | SqrtX(q)
            | SqrtXdg(q)
            | Rx(q, _)
            | Ry(q, _)
            | Rz(q, _) => GateQubits::One(q),
            Cx(a, b) | Cz(a, b) | Swap(a, b) | Zz(a, b, _) => GateQubits::Two(a, b),
        }
    }

    /// True for two-qubit gates.
    #[must_use]
    pub fn is_two_qubit(&self) -> bool {
        matches!(self.qubits(), GateQubits::Two(..))
    }

    /// True when the gate is (exactly) a Clifford operation, i.e. it maps
    /// Pauli errors to Pauli errors under conjugation. `Rz(θ)` is
    /// Clifford at multiples of `π/2` (where it equals `I`/`S`/`Z`/`S†`
    /// up to global phase — see [`Gate::rz_half_pi_steps`]); the other
    /// rotations, `T`, and `Zz` conservatively report `false`.
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        use Gate::*;
        match self {
            H(_) | X(_) | Y(_) | Z(_) | S(_) | Sdg(_) | SqrtX(_) | SqrtXdg(_) | Cx(..) | Cz(..)
            | Swap(..) => true,
            Rz(_, theta) => Self::rz_half_pi_steps(*theta).is_some(),
            T(_) | Tdg(_) | Rx(..) | Ry(..) | Zz(..) => false,
        }
    }

    /// Classifies an `Rz` angle as a Clifford phase gate: returns the
    /// number of `S` gates (mod 4) that realize `Rz(θ)` up to global
    /// phase when `θ` is a multiple of `π/2` (within `1e-9` absolute
    /// tolerance on the step count), and `None` otherwise.
    ///
    /// `Rz(θ) = diag(e^{−iθ/2}, e^{iθ/2}) ≅ diag(1, e^{iθ})`, so
    /// `θ = k·π/2` maps to `S^k`: `0 → I`, `1 → S`, `2 → Z`, `3 → S†`.
    #[must_use]
    pub fn rz_half_pi_steps(theta: f64) -> Option<u8> {
        if !theta.is_finite() {
            return None;
        }
        let steps = theta / std::f64::consts::FRAC_PI_2;
        let rounded = steps.round();
        // Past ~1e6 half-turns an f64's spacing approaches the 1e-9
        // tolerance, so "within 1e-9 of an integer" stops being
        // informative (every float above 2^52 is an integer); such
        // angles are rejected rather than misclassified.
        if rounded.abs() > 1e6 || (steps - rounded).abs() > 1e-9 {
            return None;
        }
        Some((rounded.rem_euclid(4.0)) as u8 % 4)
    }

    /// True when the gate is diagonal in the computational basis (commutes
    /// with Z-basis measurement).
    #[must_use]
    pub fn is_diagonal(&self) -> bool {
        use Gate::*;
        matches!(
            self,
            Z(_) | S(_) | Sdg(_) | T(_) | Tdg(_) | Rz(..) | Cz(..) | Zz(..)
        )
    }

    /// The inverse gate, used to build the `U_R†` halves of the Section 7
    /// random-identity circuits.
    #[must_use]
    pub fn dagger(&self) -> Gate {
        use Gate::*;
        match *self {
            H(q) => H(q),
            X(q) => X(q),
            Y(q) => Y(q),
            Z(q) => Z(q),
            S(q) => Sdg(q),
            Sdg(q) => S(q),
            T(q) => Tdg(q),
            Tdg(q) => T(q),
            SqrtX(q) => SqrtXdg(q),
            SqrtXdg(q) => SqrtX(q),
            Rx(q, t) => Rx(q, -t),
            Ry(q, t) => Ry(q, -t),
            Rz(q, t) => Rz(q, -t),
            Cx(a, b) => Cx(a, b),
            Cz(a, b) => Cz(a, b),
            Swap(a, b) => Swap(a, b),
            Zz(a, b, g) => Zz(a, b, -g),
        }
    }

    /// The 2×2 unitary matrix of a single-qubit gate, row-major
    /// `[[u00, u01], [u10, u11]]`, or `None` for two-qubit gates.
    #[must_use]
    pub fn single_qubit_matrix(&self) -> Option<[[Complex; 2]; 2]> {
        use Gate::*;
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let m = match *self {
            H(_) => [
                [Complex::real(inv_sqrt2), Complex::real(inv_sqrt2)],
                [Complex::real(inv_sqrt2), Complex::real(-inv_sqrt2)],
            ],
            X(_) => [[C_ZERO, C_ONE], [C_ONE, C_ZERO]],
            Y(_) => [[C_ZERO, -C_I], [C_I, C_ZERO]],
            Z(_) => [[C_ONE, C_ZERO], [C_ZERO, -C_ONE]],
            S(_) => [[C_ONE, C_ZERO], [C_ZERO, C_I]],
            Sdg(_) => [[C_ONE, C_ZERO], [C_ZERO, -C_I]],
            T(_) => [
                [C_ONE, C_ZERO],
                [
                    C_ZERO,
                    Complex::from_polar_unit(std::f64::consts::FRAC_PI_4),
                ],
            ],
            Tdg(_) => [
                [C_ONE, C_ZERO],
                [
                    C_ZERO,
                    Complex::from_polar_unit(-std::f64::consts::FRAC_PI_4),
                ],
            ],
            SqrtX(_) => [
                [Complex::new(0.5, 0.5), Complex::new(0.5, -0.5)],
                [Complex::new(0.5, -0.5), Complex::new(0.5, 0.5)],
            ],
            SqrtXdg(_) => [
                [Complex::new(0.5, -0.5), Complex::new(0.5, 0.5)],
                [Complex::new(0.5, 0.5), Complex::new(0.5, -0.5)],
            ],
            Rx(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [
                    [Complex::real(c), Complex::new(0.0, -s)],
                    [Complex::new(0.0, -s), Complex::real(c)],
                ]
            }
            Ry(_, t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [
                    [Complex::real(c), Complex::real(-s)],
                    [Complex::real(s), Complex::real(c)],
                ]
            }
            Rz(_, t) => [
                [Complex::from_polar_unit(-t / 2.0), C_ZERO],
                [C_ZERO, Complex::from_polar_unit(t / 2.0)],
            ],
            Cx(..) | Cz(..) | Swap(..) | Zz(..) => return None,
        };
        Some(m)
    }

    /// Short mnemonic used by [`fmt::Display`] and circuit dumps.
    #[must_use]
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            H(_) => "h",
            X(_) => "x",
            Y(_) => "y",
            Z(_) => "z",
            S(_) => "s",
            Sdg(_) => "sdg",
            T(_) => "t",
            Tdg(_) => "tdg",
            SqrtX(_) => "sx",
            SqrtXdg(_) => "sxdg",
            Rx(..) => "rx",
            Ry(..) => "ry",
            Rz(..) => "rz",
            Cx(..) => "cx",
            Cz(..) => "cz",
            Swap(..) => "swap",
            Zz(..) => "zz",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Gate::*;
        match *self {
            Rx(q, t) | Ry(q, t) | Rz(q, t) => write!(f, "{}({t:.4}) q{q}", self.name()),
            Zz(a, b, g) => write!(f, "zz({g:.4}) q{a}, q{b}"),
            Cx(a, b) | Cz(a, b) | Swap(a, b) => write!(f, "{} q{a}, q{b}", self.name()),
            H(q) | X(q) | Y(q) | Z(q) | S(q) | Sdg(q) | T(q) | Tdg(q) | SqrtX(q) | SqrtXdg(q) => {
                write!(f, "{} q{q}", self.name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_mul(a: [[Complex; 2]; 2], b: [[Complex; 2]; 2]) -> [[Complex; 2]; 2] {
        let mut out = [[C_ZERO; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                out[i][j] = a[i][0] * b[0][j] + a[i][1] * b[1][j];
            }
        }
        out
    }

    fn approx_identity(m: [[Complex; 2]; 2]) -> bool {
        m[0][0].approx_eq(C_ONE, 1e-12)
            && m[1][1].approx_eq(C_ONE, 1e-12)
            && m[0][1].approx_eq(C_ZERO, 1e-12)
            && m[1][0].approx_eq(C_ZERO, 1e-12)
    }

    fn is_unitary(m: [[Complex; 2]; 2]) -> bool {
        let dag = [
            [m[0][0].conj(), m[1][0].conj()],
            [m[0][1].conj(), m[1][1].conj()],
        ];
        approx_identity(mat_mul(dag, m))
    }

    #[test]
    fn all_single_qubit_matrices_are_unitary() {
        let gates = [
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::SqrtX(0),
            Gate::SqrtXdg(0),
            Gate::Rx(0, 0.7),
            Gate::Ry(0, -1.3),
            Gate::Rz(0, 2.1),
        ];
        for g in gates {
            let m = g.single_qubit_matrix().unwrap();
            assert!(is_unitary(m), "{g} is not unitary");
        }
    }

    #[test]
    fn dagger_inverts_matrix() {
        let gates = [
            Gate::H(0),
            Gate::S(0),
            Gate::T(0),
            Gate::SqrtX(0),
            Gate::Rx(0, 0.9),
            Gate::Ry(0, 0.4),
            Gate::Rz(0, -1.1),
        ];
        for g in gates {
            let m = g.single_qubit_matrix().unwrap();
            let d = g.dagger().single_qubit_matrix().unwrap();
            assert!(approx_identity(mat_mul(m, d)), "{g} · {g}† ≠ I");
        }
    }

    #[test]
    fn sqrt_x_squares_to_x() {
        let sx = Gate::SqrtX(0).single_qubit_matrix().unwrap();
        let xx = mat_mul(sx, sx);
        let x = Gate::X(0).single_qubit_matrix().unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(xx[i][j].approx_eq(x[i][j], 1e-12));
            }
        }
    }

    #[test]
    fn s_squares_to_z() {
        let s = Gate::S(0).single_qubit_matrix().unwrap();
        let ss = mat_mul(s, s);
        let z = Gate::Z(0).single_qubit_matrix().unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(ss[i][j].approx_eq(z[i][j], 1e-12));
            }
        }
    }

    #[test]
    fn operand_reporting() {
        assert_eq!(Gate::H(3).qubits(), GateQubits::One(3));
        assert_eq!(Gate::Cx(1, 4).qubits(), GateQubits::Two(1, 4));
        assert!(Gate::Cx(0, 1).is_two_qubit());
        assert!(!Gate::Rz(0, 1.0).is_two_qubit());
        assert_eq!(Gate::Cx(2, 5).qubits().max_index(), 5);
    }

    #[test]
    fn clifford_and_diagonal_classification() {
        assert!(Gate::H(0).is_clifford());
        assert!(Gate::Cx(0, 1).is_clifford());
        assert!(!Gate::T(0).is_clifford());
        assert!(!Gate::Rx(0, 0.3).is_clifford());
        assert!(Gate::Zz(0, 1, 0.5).is_diagonal());
        assert!(Gate::Rz(0, 0.5).is_diagonal());
        assert!(!Gate::H(0).is_diagonal());
    }

    #[test]
    fn rz_clifford_angles() {
        use std::f64::consts::{FRAC_PI_2, PI};
        // Multiples of π/2 are Clifford, with the right S-power.
        assert_eq!(Gate::rz_half_pi_steps(0.0), Some(0));
        assert_eq!(Gate::rz_half_pi_steps(FRAC_PI_2), Some(1));
        assert_eq!(Gate::rz_half_pi_steps(PI), Some(2));
        assert_eq!(Gate::rz_half_pi_steps(3.0 * FRAC_PI_2), Some(3));
        assert_eq!(Gate::rz_half_pi_steps(2.0 * PI), Some(0));
        assert_eq!(Gate::rz_half_pi_steps(-FRAC_PI_2), Some(3));
        assert_eq!(Gate::rz_half_pi_steps(-PI), Some(2));
        assert!(Gate::Rz(0, PI).is_clifford());
        assert!(Gate::Rz(0, -7.0 * FRAC_PI_2).is_clifford());
        // Everything else is not.
        assert_eq!(Gate::rz_half_pi_steps(0.3), None);
        // Huge angles where every f64 is an integer number of steps
        // must be rejected, not misclassified (1e16 rad is ~2.64 rad
        // mod 2π, nowhere near a π/2 multiple).
        assert_eq!(Gate::rz_half_pi_steps(1e16), None);
        assert_eq!(Gate::rz_half_pi_steps(-7.3e15), None);
        assert!(!Gate::Rz(0, 1e16).is_clifford());
        assert_eq!(Gate::rz_half_pi_steps(std::f64::consts::FRAC_PI_4), None);
        assert_eq!(Gate::rz_half_pi_steps(f64::NAN), None);
        assert!(!Gate::Rz(0, 0.3).is_clifford());
        // The Rz(π/2) matrix really is S up to global phase e^{−iπ/4}.
        let rz = Gate::Rz(0, FRAC_PI_2).single_qubit_matrix().unwrap();
        let s = Gate::S(0).single_qubit_matrix().unwrap();
        let phase = Complex::from_polar_unit(std::f64::consts::FRAC_PI_4);
        for i in 0..2 {
            for j in 0..2 {
                assert!((phase * rz[i][j]).approx_eq(s[i][j], 1e-12));
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gate::H(2).to_string(), "h q2");
        assert_eq!(Gate::Cx(0, 1).to_string(), "cx q0, q1");
        assert_eq!(Gate::Rz(1, 0.5).to_string(), "rz(0.5000) q1");
    }
}
