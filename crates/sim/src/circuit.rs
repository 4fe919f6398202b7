//! The circuit intermediate representation: an ordered gate list with a
//! fixed-width qubit register, plus the structural statistics (depth,
//! CX count) the paper's analysis relies on.

use std::fmt;

use crate::gates::{Gate, GateQubits};

/// A quantum circuit: `num_qubits` qubits and an ordered list of gates,
/// measured in the computational basis at the end.
///
/// All of the paper's benchmarks (BV, GHZ, QAOA, random-identity) are
/// terminal-measurement circuits, so measurement is implicit.
///
/// # Example
///
/// ```
/// use hammer_sim::{Circuit, Gate};
///
/// // A Bell pair.
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.gate_count(), 2);
/// assert_eq!(c.cx_count(), 1);
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or exceeds 128 (the bitstring
    /// width limit of the rest of the workspace). Dense simulation caps
    /// out far earlier ([`crate::MAX_DENSE_QUBITS`]); widths beyond it
    /// are the stabilizer engine's territory.
    #[must_use]
    pub fn new(num_qubits: usize) -> Self {
        assert!(
            (1..=128).contains(&num_qubits),
            "circuit width {num_qubits} outside 1..=128"
        );
        Self {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The ordered gate list.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of two-qubit gates — the error-dominant operations on NISQ
    /// hardware (§2.1).
    #[must_use]
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of CX (CNOT) gates specifically.
    #[must_use]
    pub fn cx_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Cx(..)))
            .count()
    }

    /// True when every gate is a Clifford operation (see
    /// [`Gate::is_clifford`]; `Rz` at multiples of `π/2` counts). Such
    /// circuits — BV, GHZ, the Clifford skeletons of §7 — admit exact
    /// Aaronson–Gottesman tableau simulation at `O(n²)` per gate, which
    /// is how the stabilizer engine lifts the dense
    /// [`crate::MAX_DENSE_QUBITS`] cap. The engine itself asks for
    /// less: only the gates before the diagonal measurement tail must
    /// be Clifford. The empty circuit is Clifford.
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        self.gates.iter().all(Gate::is_clifford)
    }

    /// Circuit depth under greedy as-soon-as-possible scheduling: the
    /// number of moments when every gate starts as early as its operands
    /// allow. This matches the depth notion the paper uses when relating
    /// depth to EHD (§7).
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut ready = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let slot = match g.qubits() {
                GateQubits::One(a) => {
                    let s = ready[a];
                    ready[a] = s + 1;
                    s + 1
                }
                GateQubits::Two(a, b) => {
                    let s = ready[a].max(ready[b]);
                    ready[a] = s + 1;
                    ready[b] = s + 1;
                    s + 1
                }
            };
            depth = depth.max(slot);
        }
        depth
    }

    /// The ASAP start slot of every gate (same scheduling as
    /// [`Circuit::depth`]): `slots()[i]` is the moment gate `i` begins,
    /// starting from 0. Used by the noise engines to account for idle
    /// periods.
    #[must_use]
    pub fn slots(&self) -> Vec<usize> {
        let mut ready = vec![0usize; self.num_qubits];
        let mut out = Vec::with_capacity(self.gates.len());
        for g in &self.gates {
            let slot = match g.qubits() {
                GateQubits::One(a) => {
                    let s = ready[a];
                    ready[a] = s + 1;
                    s
                }
                GateQubits::Two(a, b) => {
                    let s = ready[a].max(ready[b]);
                    ready[a] = s + 1;
                    ready[b] = s + 1;
                    s
                }
            };
            out.push(slot);
        }
        out
    }

    /// For every gate, the number of moments each of its operands spent
    /// *idle* immediately before it (waiting for the other operand or
    /// for earlier gates elsewhere), plus the trailing idle moments per
    /// qubit before measurement. Returns
    /// `(per_gate_idle, trailing_idle)` where `per_gate_idle[i]` lists
    /// `(qubit, idle_moments)` pairs for gate `i`.
    ///
    /// Idling qubits decohere on real hardware (the "idling errors"
    /// error source the paper cites); the noise engines convert these
    /// durations into fault opportunities.
    #[must_use]
    pub fn idle_periods(&self) -> (Vec<Vec<(usize, usize)>>, Vec<usize>) {
        let slots = self.slots();
        let mut ready = vec![0usize; self.num_qubits];
        let mut per_gate = Vec::with_capacity(self.gates.len());
        for (g, &slot) in self.gates.iter().zip(&slots) {
            let mut idles = Vec::new();
            for q in g.qubits().to_vec() {
                let idle = slot - ready[q];
                if idle > 0 {
                    idles.push((q, idle));
                }
                ready[q] = slot + 1;
            }
            per_gate.push(idles);
        }
        let depth = self.depth();
        let trailing = ready.iter().map(|&r| depth - r).collect();
        (per_gate, trailing)
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range or a two-qubit gate addresses
    /// the same qubit twice.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        match gate.qubits() {
            GateQubits::One(a) => {
                assert!(a < self.num_qubits, "qubit {a} out of range in {gate}");
            }
            GateQubits::Two(a, b) => {
                assert!(
                    a < self.num_qubits && b < self.num_qubits,
                    "qubit out of range in {gate}"
                );
                assert!(a != b, "two-qubit gate {gate} addresses qubit {a} twice");
            }
        }
        self.gates.push(gate);
        self
    }

    /// Appends every gate of `other` (registers must match).
    ///
    /// # Panics
    ///
    /// Panics if the register widths differ.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit circuit",
            other.num_qubits, self.num_qubits
        );
        self.gates.extend_from_slice(&other.gates);
        self
    }

    /// The adjoint circuit: gates reversed and individually inverted.
    /// Used to build the `U_R†` halves of the Section 7 benchmarks.
    #[must_use]
    pub fn dagger(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(Gate::dagger).collect(),
        }
    }

    // --- fluent builder helpers -------------------------------------

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends a Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends a Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Appends a Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S(q))
    }

    /// Appends a T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T(q))
    }

    /// Appends an Rx rotation on `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, theta))
    }

    /// Appends an Ry rotation on `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, theta))
    }

    /// Appends an Rz rotation on `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, theta))
    }

    /// Appends a CX with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::Cx(c, t))
    }

    /// Appends a CZ on `a`, `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }

    /// Appends a SWAP on `a`, `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }

    /// Appends `exp(−i γ Z⊗Z)` on `a`, `b` — one QAOA cost-layer edge.
    pub fn zz(&mut self, a: usize, b: usize, gamma: f64) -> &mut Self {
        self.push(Gate::Zz(a, b, gamma))
    }

    /// Rewrites the circuit onto the `{1q, CX}` basis: `SWAP → 3 CX`,
    /// `CZ → H·CX·H`, `ZZ(γ) → CX·Rz(2γ)·CX`. Single-qubit gates pass
    /// through. The result implements the same unitary.
    #[must_use]
    pub fn decompose_to_cx(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for &g in &self.gates {
            match g {
                Gate::Swap(a, b) => {
                    out.cx(a, b).cx(b, a).cx(a, b);
                }
                Gate::Cz(a, b) => {
                    out.h(b).cx(a, b).h(b);
                }
                Gate::Zz(a, b, gamma) => {
                    out.cx(a, b).rz(b, 2.0 * gamma).cx(a, b);
                }
                other => {
                    out.push(other);
                }
            }
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates):",
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.5);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.cx_count(), 2);
        assert_eq!(c.two_qubit_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_operands() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn push_rejects_duplicate_operands() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    fn depth_asap_scheduling() {
        // h q0; h q1 run in the same moment → depth 1.
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        assert_eq!(c.depth(), 1);
        // Serial chain on one qubit.
        let mut c = Circuit::new(1);
        c.h(0).x(0).z(0);
        assert_eq!(c.depth(), 3);
        // GHZ ladder: h + cascading CX.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        assert_eq!(c.depth(), 4);
        assert_eq!(Circuit::new(3).depth(), 0);
    }

    #[test]
    fn slots_match_depth_scheduling() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).cx(1, 2).h(0);
        // h0,h1 at slot 0; cx01 at 1; cx12 at 2; h0 at 2 (qubit 0 free).
        assert_eq!(c.slots(), vec![0, 0, 1, 2, 2]);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn idle_periods_detect_waiting() {
        // Qubit 2 waits two moments for the CX chain to reach it.
        let mut c = Circuit::new(3);
        c.h(0).x(0).cx(0, 2);
        let (per_gate, trailing) = c.idle_periods();
        assert_eq!(per_gate[0], vec![]);
        assert_eq!(per_gate[1], vec![]);
        // Gate 2 (cx) starts at slot 2; qubit 2 was ready at 0 → 2 idle.
        assert_eq!(per_gate[2], vec![(2, 2)]);
        // Qubit 1 never participates: idle for the whole depth.
        assert_eq!(trailing, vec![0, 3, 0]);
    }

    #[test]
    fn idle_periods_empty_for_dense_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).h(0).h(1);
        let (per_gate, trailing) = c.idle_periods();
        assert!(per_gate.iter().all(Vec::is_empty));
        assert_eq!(trailing, vec![0, 0]);
    }

    #[test]
    fn dagger_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1).rz(0, 0.4);
        let d = c.dagger();
        assert_eq!(d.gates()[0], Gate::Rz(0, -0.4));
        assert_eq!(d.gates()[1], Gate::Cx(0, 1));
        assert_eq!(d.gates()[2], Gate::Sdg(1));
        assert_eq!(d.gates()[3], Gate::H(0));
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.gate_count(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn append_rejects_width_mismatch() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.append(&b);
    }

    #[test]
    fn decompose_swap_and_cz_and_zz() {
        let mut c = Circuit::new(2);
        c.swap(0, 1).cz(0, 1).zz(0, 1, 0.3);
        let d = c.decompose_to_cx();
        assert_eq!(d.cx_count(), 6);
        assert_eq!(d.two_qubit_count(), 6);
        assert!(d
            .gates()
            .iter()
            .all(|g| !matches!(g, Gate::Swap(..) | Gate::Cz(..) | Gate::Zz(..))));
    }

    #[test]
    fn is_clifford_classifies_whole_circuits() {
        // GHZ: H + CX ladder — Clifford.
        let mut ghz = Circuit::new(3);
        ghz.h(0).cx(0, 1).cx(1, 2);
        assert!(ghz.is_clifford());
        // The empty circuit is Clifford.
        assert!(Circuit::new(2).is_clifford());
        // S/X/Z/CZ/SWAP and Rz at π/2 multiples stay Clifford.
        let mut c = Circuit::new(3);
        c.s(0)
            .x(1)
            .z(2)
            .cz(0, 2)
            .swap(1, 2)
            .rz(0, std::f64::consts::PI)
            .rz(1, -std::f64::consts::FRAC_PI_2);
        assert!(c.is_clifford());
        // One T gate breaks it.
        c.t(0);
        assert!(!c.is_clifford());
        // A generic rotation breaks it too.
        let mut r = Circuit::new(2);
        r.h(0).rz(0, 0.3);
        assert!(!r.is_clifford());
        // ZZ is conservatively non-Clifford.
        let mut z = Circuit::new(2);
        z.zz(0, 1, std::f64::consts::FRAC_PI_2);
        assert!(!z.is_clifford());
    }

    #[test]
    fn wide_circuits_construct_and_schedule() {
        let mut c = Circuit::new(128);
        c.h(0);
        for q in 0..127 {
            c.cx(q, q + 1);
        }
        assert_eq!(c.num_qubits(), 128);
        assert_eq!(c.depth(), 128);
        assert!(c.is_clifford());
    }

    #[test]
    #[should_panic(expected = "outside 1..=128")]
    fn width_cap_is_128() {
        let _ = Circuit::new(129);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = c.to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0, q1"));
    }
}
