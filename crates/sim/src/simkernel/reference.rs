//! The scalar gate kernels of the original state-vector layer, kept
//! verbatim as the correctness oracle and speedup baseline.
//!
//! These are the loops [`crate::StateVector`] shipped with before the
//! kernel subsystem existed: a generic dense 2×2 matrix multiply for
//! every single-qubit gate and full-array scans with per-index bit
//! tests for the two-qubit gates. Every specialized kernel in this
//! module tree is property-pinned to these functions to `≤ 1e-12`
//! amplitude agreement (see `tests/simkernel_oracle.rs`).

use crate::complex::Complex;
use crate::gates::{Gate, GateQubits};

/// Applies `gate` to the amplitude array with the original scalar
/// loops.
///
/// # Panics
///
/// Panics if a gate operand is out of range for the register width
/// implied by `amps.len()`.
pub fn apply_gate(amps: &mut [Complex], gate: Gate) {
    match gate {
        Gate::X(q) => apply_x(amps, q),
        Gate::Z(q) => apply_phase_flip(amps, q),
        Gate::Cx(c, t) => apply_cx(amps, c, t),
        Gate::Cz(a, b) => apply_cz(amps, a, b),
        Gate::Swap(a, b) => apply_swap(amps, a, b),
        Gate::Zz(a, b, g) => apply_zz(amps, a, b, g),
        other => {
            let m = other
                .single_qubit_matrix()
                .expect("all remaining gates are single-qubit");
            let q = match other.qubits() {
                GateQubits::One(q) => q,
                GateQubits::Two(..) => unreachable!("handled above"),
            };
            apply_single_qubit(amps, q, m);
        }
    }
}

/// Applies a 2×2 unitary to qubit `q` — the generic dense butterfly.
///
/// # Panics
///
/// Panics if `q` is out of range.
pub fn apply_single_qubit(amps: &mut [Complex], q: usize, m: [[Complex; 2]; 2]) {
    let step = checked_step(amps, q);
    let low_mask = step - 1;
    let half = amps.len() / 2;
    for k in 0..half {
        let i0 = ((k & !low_mask) << 1) | (k & low_mask);
        let i1 = i0 | step;
        let a0 = amps[i0];
        let a1 = amps[i1];
        amps[i0] = m[0][0] * a0 + m[0][1] * a1;
        amps[i1] = m[1][0] * a0 + m[1][1] * a1;
    }
}

/// `1 << q`, asserting `q` addresses a qubit of this register.
fn checked_step(amps: &[Complex], q: usize) -> usize {
    let step = 1usize << q;
    assert!(step < amps.len(), "qubit {q} out of range");
    step
}

fn apply_x(amps: &mut [Complex], q: usize) {
    let step = checked_step(amps, q);
    let low_mask = step - 1;
    let half = amps.len() / 2;
    for k in 0..half {
        let i0 = ((k & !low_mask) << 1) | (k & low_mask);
        amps.swap(i0, i0 | step);
    }
}

fn apply_phase_flip(amps: &mut [Complex], q: usize) {
    let bit = checked_step(amps, q);
    for (i, a) in amps.iter_mut().enumerate() {
        if i & bit != 0 {
            *a = -*a;
        }
    }
}

fn apply_cx(amps: &mut [Complex], c: usize, t: usize) {
    let cbit = checked_step(amps, c);
    let tbit = checked_step(amps, t);
    assert!(c != t, "cx addresses qubit {c} twice");
    for i in 0..amps.len() {
        if i & cbit != 0 && i & tbit == 0 {
            amps.swap(i, i | tbit);
        }
    }
}

fn apply_cz(amps: &mut [Complex], a: usize, b: usize) {
    let mask = checked_step(amps, a) | checked_step(amps, b);
    assert!(a != b, "cz addresses qubit {a} twice");
    for (i, amp) in amps.iter_mut().enumerate() {
        if i & mask == mask {
            *amp = -*amp;
        }
    }
}

fn apply_swap(amps: &mut [Complex], a: usize, b: usize) {
    let abit = checked_step(amps, a);
    let bbit = checked_step(amps, b);
    assert!(a != b, "swap addresses qubit {a} twice");
    for i in 0..amps.len() {
        // Swap |…a=1…b=0…⟩ with |…a=0…b=1…⟩ once.
        if i & abit != 0 && i & bbit == 0 {
            let j = (i & !abit) | bbit;
            amps.swap(i, j);
        }
    }
}

/// `exp(−i γ Z⊗Z)`: phase `e^{−iγ}` on even-parity pairs, `e^{+iγ}` on
/// odd-parity pairs.
fn apply_zz(amps: &mut [Complex], a: usize, b: usize, gamma: f64) {
    let abit = checked_step(amps, a);
    let bbit = checked_step(amps, b);
    assert!(a != b, "zz addresses qubit {a} twice");
    let even = Complex::from_polar_unit(-gamma);
    let odd = Complex::from_polar_unit(gamma);
    for (i, amp) in amps.iter_mut().enumerate() {
        let parity = ((i & abit != 0) as u8) ^ ((i & bbit != 0) as u8);
        *amp *= if parity == 0 { even } else { odd };
    }
}
