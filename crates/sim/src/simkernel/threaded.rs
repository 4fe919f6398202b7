//! Multi-threaded gate application: scoped threads over disjoint,
//! alignment-preserving amplitude chunks.
//!
//! A gate touching qubits up to `hq` only ever couples amplitudes
//! within an aligned `2^(hq+1)` block, so the `2^n` array splits into
//! independent blocks that workers process with the *same* serial
//! specialized kernels (the alignment contract in
//! [`super::specialized`]). Gates on the top qubit couple the two array
//! halves instead; those run through a pair scheme that zips chunks of
//! the low and high halves, or — for diagonal and controlled gates —
//! decompose into a smaller gate on one half and recurse.

use crate::complex::Complex;
use crate::gates::Gate;

use super::specialized;
use super::specialized::{
    h_pair, phase_pair, rx_pair, ry_pair, rz_pair, rz_phases, sx_pair, x_pair, y_pair, z_pair,
    Phase,
};

/// Applies `gate` across `threads` workers.
///
/// # Panics
///
/// Panics if an operand is out of range or a worker panics.
pub fn apply_gate(amps: &mut [Complex], gate: Gate, threads: usize) {
    if threads <= 1 || amps.len() < 4 {
        specialized::apply_gate(amps, gate);
        return;
    }
    let hq = gate.qubits().max_index();
    let align = 2usize << hq;
    assert!(align <= amps.len(), "qubit {hq} out of range");
    if align < amps.len() {
        par_aligned(amps, align, threads, gate);
    } else {
        top_qubit(amps, gate, threads);
    }
}

/// Splits the array into per-worker runs of whole `align` blocks and
/// runs the serial specialized kernel on each — every operand bit is
/// local inside a run, so no synchronization is needed.
fn par_aligned(amps: &mut [Complex], align: usize, threads: usize, gate: Gate) {
    let n_blocks = amps.len() / align;
    let per = n_blocks.div_ceil(threads) * align;
    std::thread::scope(|scope| {
        for chunk in amps.chunks_mut(per) {
            scope.spawn(move || specialized::apply_gate(chunk, gate));
        }
    });
}

/// Gates whose largest operand is the top qubit: the coupled amplitude
/// pairs live in opposite array halves.
fn top_qubit(amps: &mut [Complex], gate: Gate, threads: usize) {
    match gate {
        Gate::H(_) => par_pairs(amps, threads, 1, h_pair),
        Gate::X(_) => par_pairs(amps, threads, 1, x_pair),
        Gate::Y(_) => par_pairs(amps, threads, 1, y_pair),
        Gate::Z(_) => par_pairs(amps, threads, 1, z_pair),
        Gate::S(_) => par_pairs(amps, threads, 1, |lo, hi| phase_pair(lo, hi, Phase::I)),
        Gate::Sdg(_) => par_pairs(amps, threads, 1, |lo, hi| phase_pair(lo, hi, Phase::NegI)),
        Gate::T(_) | Gate::Tdg(_) => {
            let sign = if matches!(gate, Gate::T(_)) {
                1.0
            } else {
                -1.0
            };
            let p = Complex::from_polar_unit(sign * std::f64::consts::FRAC_PI_4);
            par_pairs(amps, threads, 1, move |lo, hi| {
                phase_pair(lo, hi, Phase::Unit(p));
            });
        }
        Gate::Rz(_, theta) => {
            let (plo, phi) = rz_phases(theta);
            par_pairs(amps, threads, 1, move |lo, hi| rz_pair(lo, hi, plo, phi));
        }
        Gate::SqrtX(_) => par_pairs(amps, threads, 1, |lo, hi| sx_pair(lo, hi, 1.0)),
        Gate::SqrtXdg(_) => par_pairs(amps, threads, 1, |lo, hi| sx_pair(lo, hi, -1.0)),
        Gate::Rx(_, theta) => {
            let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
            par_pairs(amps, threads, 1, move |lo, hi| rx_pair(lo, hi, c, s));
        }
        Gate::Ry(_, theta) => {
            let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
            par_pairs(amps, threads, 1, move |lo, hi| ry_pair(lo, hi, c, s));
        }
        Gate::Cx(c, t) => {
            let top = top_bit(amps);
            if t == top {
                // Pairs straddle the halves; control bit c is local to
                // chunks aligned to 2^(c+1).
                par_pairs(amps, threads, 2 << c, move |lo, hi| {
                    let cstep = 1usize << c;
                    for (l, h) in lo.chunks_mut(2 * cstep).zip(hi.chunks_mut(2 * cstep)) {
                        l[cstep..].swap_with_slice(&mut h[cstep..]);
                    }
                });
            } else {
                // Control is the top bit: X(t) on the high half only.
                let half = amps.len() / 2;
                apply_gate(&mut amps[half..], Gate::X(t), threads);
            }
        }
        Gate::Cz(a, b) => {
            // Diagonal: negate where both bits are set, i.e. Z(other)
            // on the high (top-bit-set) half.
            let top = top_bit(amps);
            let other = if a == top { b } else { a };
            let half = amps.len() / 2;
            apply_gate(&mut amps[half..], Gate::Z(other), threads);
        }
        Gate::Swap(a, b) => {
            let top = top_bit(amps);
            let low = if a == top { b } else { a };
            // |…low=1…top=0⟩ ↔ |…low=0…top=1⟩: within each aligned
            // 2^(low+1) block, the low half's upper sub-block trades
            // with the high half's lower sub-block.
            par_pairs(amps, threads, 2 << low, move |lo, hi| {
                let lstep = 1usize << low;
                for (l, h) in lo.chunks_mut(2 * lstep).zip(hi.chunks_mut(2 * lstep)) {
                    l[lstep..].swap_with_slice(&mut h[..lstep]);
                }
            });
        }
        Gate::Zz(a, b, gamma) => {
            // Diagonal: on the top=0 half the pair parity is the other
            // bit, giving diag(e^{−iγ}, e^{+iγ}) = Rz(other, 2γ); on the
            // top=1 half the parity is inverted.
            let top = top_bit(amps);
            let other = if a == top { b } else { a };
            let half = amps.len() / 2;
            let (lo, hi) = amps.split_at_mut(half);
            apply_gate(lo, Gate::Rz(other, 2.0 * gamma), threads);
            apply_gate(hi, Gate::Rz(other, -2.0 * gamma), threads);
        }
    }
}

/// Index of the top qubit of the register `amps` spans.
fn top_bit(amps: &[Complex]) -> usize {
    debug_assert!(amps.len().is_power_of_two());
    amps.len().trailing_zeros() as usize - 1
}

/// Splits the array at the top-qubit boundary and zips equal chunks of
/// the two halves across workers. `sub_align` keeps every chunk a whole
/// number of the gate's aligned sub-blocks.
fn par_pairs<F>(amps: &mut [Complex], threads: usize, sub_align: usize, f: F)
where
    F: Fn(&mut [Complex], &mut [Complex]) + Sync,
{
    let half = amps.len() / 2;
    debug_assert!(sub_align <= half, "sub-alignment exceeds half array");
    let chunk = half.div_ceil(threads).next_multiple_of(sub_align);
    let (lo, hi) = amps.split_at_mut(half);
    let f = &f;
    std::thread::scope(|scope| {
        for (l, h) in lo.chunks_mut(chunk).zip(hi.chunks_mut(chunk)) {
            scope.spawn(move || f(l, h));
        }
    });
}
