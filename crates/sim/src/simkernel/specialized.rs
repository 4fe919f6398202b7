//! Specialized serial gate kernels: index-permutation / sign-flip
//! passes for the Pauli and controlled gates (zero complex multiplies)
//! and stride-blocked two-amplitude butterflies with real coefficient
//! arithmetic for the rotation family.
//!
//! Every pass walks the register in aligned `2^(operand + 1)` blocks,
//! so the operand bits of an amplitude index are local to its block and
//! the array streams linearly, one block at a time.

use std::f64::consts::FRAC_1_SQRT_2;

use crate::complex::Complex;
use crate::gates::Gate;

/// Applies `gate` with the specialized serial kernels.
///
/// # Panics
///
/// Panics if an operand is out of range for the register `amps` spans.
pub fn apply_gate(amps: &mut [Complex], gate: Gate) {
    match gate {
        Gate::H(q) => for_each_pair(amps, step(amps, q), h_pair),
        Gate::X(q) => for_each_pair(amps, step(amps, q), x_pair),
        Gate::Y(q) => for_each_pair(amps, step(amps, q), y_pair),
        Gate::Z(q) => for_each_pair(amps, step(amps, q), z_pair),
        Gate::S(q) => for_each_pair(amps, step(amps, q), |lo, hi| phase_pair(lo, hi, Phase::I)),
        Gate::Sdg(q) => for_each_pair(amps, step(amps, q), |lo, hi| {
            phase_pair(lo, hi, Phase::NegI)
        }),
        Gate::T(q) => {
            let p = Complex::from_polar_unit(std::f64::consts::FRAC_PI_4);
            for_each_pair(amps, step(amps, q), move |lo, hi| {
                phase_pair(lo, hi, Phase::Unit(p));
            });
        }
        Gate::Tdg(q) => {
            let p = Complex::from_polar_unit(-std::f64::consts::FRAC_PI_4);
            for_each_pair(amps, step(amps, q), move |lo, hi| {
                phase_pair(lo, hi, Phase::Unit(p));
            });
        }
        Gate::Rz(q, theta) => {
            let (plo, phi) = rz_phases(theta);
            for_each_pair(amps, step(amps, q), move |lo, hi| rz_pair(lo, hi, plo, phi));
        }
        Gate::SqrtX(q) => for_each_pair(amps, step(amps, q), |lo, hi| sx_pair(lo, hi, 1.0)),
        Gate::SqrtXdg(q) => for_each_pair(amps, step(amps, q), |lo, hi| sx_pair(lo, hi, -1.0)),
        Gate::Rx(q, theta) => {
            let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
            for_each_pair(amps, step(amps, q), move |lo, hi| rx_pair(lo, hi, c, s));
        }
        Gate::Ry(q, theta) => {
            let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
            for_each_pair(amps, step(amps, q), move |lo, hi| ry_pair(lo, hi, c, s));
        }
        Gate::Cx(c, t) => apply_cx(amps, c, t),
        Gate::Cz(a, b) => apply_cz(amps, a, b),
        Gate::Swap(a, b) => apply_swap(amps, a, b),
        Gate::Zz(a, b, g) => apply_zz(amps, a, b, g),
    }
}

/// `1 << q`, asserting `q` fits the slice.
fn step(amps: &[Complex], q: usize) -> usize {
    let step = 1usize << q;
    assert!(step < amps.len(), "qubit {q} out of range");
    step
}

/// Sweeps the slice in aligned `2·step` blocks, handing each block's
/// low/high halves — the `|…q=0…⟩` / `|…q=1…⟩` amplitude pairs — to the
/// pair kernel. This is the stride-blocked butterfly driver: each block
/// is visited exactly once, in address order, so the pass streams the
/// array linearly.
fn for_each_pair<F>(amps: &mut [Complex], step: usize, mut f: F)
where
    F: FnMut(&mut [Complex], &mut [Complex]),
{
    debug_assert_eq!(amps.len() % (2 * step), 0, "unaligned butterfly slice");
    for block in amps.chunks_mut(2 * step) {
        let (lo, hi) = block.split_at_mut(step);
        f(lo, hi);
    }
}

// --- pair kernels ---------------------------------------------------

/// Hadamard butterfly: 2 real multiplies per component, no complex
/// products.
fn h_pair(lo: &mut [Complex], hi: &mut [Complex]) {
    for (l, h) in lo.iter_mut().zip(hi) {
        let (a, b) = (*l, *h);
        *l = Complex::new((a.re + b.re) * FRAC_1_SQRT_2, (a.im + b.im) * FRAC_1_SQRT_2);
        *h = Complex::new((a.re - b.re) * FRAC_1_SQRT_2, (a.im - b.im) * FRAC_1_SQRT_2);
    }
}

/// Pauli-X: pure amplitude exchange.
fn x_pair(lo: &mut [Complex], hi: &mut [Complex]) {
    lo.swap_with_slice(hi);
}

/// Pauli-Y: exchange + `±i` factors, realized as component shuffles.
fn y_pair(lo: &mut [Complex], hi: &mut [Complex]) {
    for (l, h) in lo.iter_mut().zip(hi) {
        let (a, b) = (*l, *h);
        *l = Complex::new(b.im, -b.re);
        *h = Complex::new(-a.im, a.re);
    }
}

/// Pauli-Z: sign flip on the `|1⟩` branch.
fn z_pair(_lo: &mut [Complex], hi: &mut [Complex]) {
    for h in hi {
        *h = -*h;
    }
}

/// A diagonal phase on the `|1⟩` branch, with shuffle fast paths for
/// the `±i` phases of `S`/`S†`.
#[derive(Clone, Copy)]
enum Phase {
    /// Multiply by `i`.
    I,
    /// Multiply by `−i`.
    NegI,
    /// Multiply by an arbitrary unit phase.
    Unit(Complex),
}

fn phase_pair(_lo: &mut [Complex], hi: &mut [Complex], phase: Phase) {
    match phase {
        Phase::I => {
            for h in hi {
                *h = Complex::new(-h.im, h.re);
            }
        }
        Phase::NegI => {
            for h in hi {
                *h = Complex::new(h.im, -h.re);
            }
        }
        Phase::Unit(p) => {
            for h in hi {
                *h *= p;
            }
        }
    }
}

/// The two diagonal phases of `Rz(θ) = diag(e^{−iθ/2}, e^{+iθ/2})`.
fn rz_phases(theta: f64) -> (Complex, Complex) {
    (
        Complex::from_polar_unit(-theta / 2.0),
        Complex::from_polar_unit(theta / 2.0),
    )
}

fn rz_pair(lo: &mut [Complex], hi: &mut [Complex], plo: Complex, phi: Complex) {
    for l in lo {
        *l *= plo;
    }
    for h in hi {
        *h *= phi;
    }
}

/// `Rx(θ)` butterfly with real coefficients:
/// `b0 = c·a0 − i·s·a1`, `b1 = −i·s·a0 + c·a1`.
fn rx_pair(lo: &mut [Complex], hi: &mut [Complex], c: f64, s: f64) {
    for (l, h) in lo.iter_mut().zip(hi) {
        let (a, b) = (*l, *h);
        *l = Complex::new(c * a.re + s * b.im, c * a.im - s * b.re);
        *h = Complex::new(s * a.im + c * b.re, -s * a.re + c * b.im);
    }
}

/// `Ry(θ)` butterfly (all-real matrix).
fn ry_pair(lo: &mut [Complex], hi: &mut [Complex], c: f64, s: f64) {
    for (l, h) in lo.iter_mut().zip(hi) {
        let (a, b) = (*l, *h);
        *l = Complex::new(c * a.re - s * b.re, c * a.im - s * b.im);
        *h = Complex::new(s * a.re + c * b.re, s * a.im + c * b.im);
    }
}

/// `√X` (`sign = +1`) / `√X†` (`sign = −1`) butterfly:
/// `b0 = ((a0+a1) ± i(a0−a1)) / 2`, `b1 = ((a0+a1) ∓ i(a0−a1)) / 2`.
fn sx_pair(lo: &mut [Complex], hi: &mut [Complex], sign: f64) {
    for (l, h) in lo.iter_mut().zip(hi) {
        let (a, b) = (*l, *h);
        let (sum_re, sum_im) = (a.re + b.re, a.im + b.im);
        let (dif_re, dif_im) = (a.re - b.re, a.im - b.im);
        *l = Complex::new(
            0.5 * (sum_re - sign * dif_im),
            0.5 * (sum_im + sign * dif_re),
        );
        *h = Complex::new(
            0.5 * (sum_re + sign * dif_im),
            0.5 * (sum_im - sign * dif_re),
        );
    }
}

// --- two-qubit kernels ----------------------------------------------
//
// All four decompose into nested aligned blocks whose innermost unit is
// a *contiguous run* of `2^min(a,b)` amplitudes, so the hot work is
// `swap_with_slice` / straight-line loops over runs instead of
// per-index bit arithmetic and data-dependent branches. Exactly
// `len/4` amplitude pairs (or elements) are touched.

/// CX: exchanges the target pair on the control-set quarter of the
/// array, run by contiguous run.
fn apply_cx(amps: &mut [Complex], c: usize, t: usize) {
    let cstep = step(amps, c);
    let tstep = step(amps, t);
    assert!(c != t, "cx addresses qubit {c} twice");
    if t > c {
        // Pairs differ in the high bit t; the control bit is local to
        // each half.
        for block in amps.chunks_mut(2 * tstep) {
            let (lo, hi) = block.split_at_mut(tstep);
            for base in (0..tstep).step_by(2 * cstep) {
                lo[base + cstep..base + 2 * cstep]
                    .swap_with_slice(&mut hi[base + cstep..base + 2 * cstep]);
            }
        }
    } else {
        // Control is the high bit: an X(t) pass restricted to each
        // block's control-set half.
        for block in amps.chunks_mut(2 * cstep) {
            let hi = &mut block[cstep..];
            for sub in hi.chunks_mut(2 * tstep) {
                let (l, h) = sub.split_at_mut(tstep);
                l.swap_with_slice(h);
            }
        }
    }
}

/// CZ: negates the both-bits-set quarter of the array, run by
/// contiguous run.
fn apply_cz(amps: &mut [Complex], a: usize, b: usize) {
    let p0 = step(amps, a.min(b));
    let p1 = step(amps, a.max(b));
    assert!(a != b, "cz addresses qubit {a} twice");
    for block in amps.chunks_mut(2 * p1) {
        let hi = &mut block[p1..];
        for base in (0..p1).step_by(2 * p0) {
            for amp in &mut hi[base + p0..base + 2 * p0] {
                *amp = -*amp;
            }
        }
    }
}

/// SWAP: exchanges the `|…a=1…b=0…⟩` ↔ `|…a=0…b=1…⟩` quarters, run by
/// contiguous run.
fn apply_swap(amps: &mut [Complex], a: usize, b: usize) {
    let p0 = step(amps, a.min(b));
    let p1 = step(amps, a.max(b));
    assert!(a != b, "swap addresses qubit {a} twice");
    for block in amps.chunks_mut(2 * p1) {
        let (lo, hi) = block.split_at_mut(p1);
        for base in (0..p1).step_by(2 * p0) {
            lo[base + p0..base + 2 * p0].swap_with_slice(&mut hi[base..base + p0]);
        }
    }
}

/// `exp(−i γ Z⊗Z)`: phase `e^{−iγ}` on even-parity runs, `e^{+iγ}` on
/// odd-parity runs — no per-element parity computation.
fn apply_zz(amps: &mut [Complex], a: usize, b: usize, gamma: f64) {
    let p0 = step(amps, a.min(b));
    let p1 = step(amps, a.max(b));
    assert!(a != b, "zz addresses qubit {a} twice");
    let even = Complex::from_polar_unit(-gamma);
    let odd = Complex::from_polar_unit(gamma);
    let scale_runs = |half: &mut [Complex], first: Complex, second: Complex| {
        for sub in half.chunks_mut(2 * p0) {
            let (l, h) = sub.split_at_mut(p0);
            for amp in l {
                *amp *= first;
            }
            for amp in h {
                *amp *= second;
            }
        }
    };
    for block in amps.chunks_mut(2 * p1) {
        let (lo, hi) = block.split_at_mut(p1);
        scale_runs(lo, even, odd);
        scale_runs(hi, odd, even);
    }
}
