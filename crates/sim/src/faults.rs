//! Pauli fault injection, shared by every production noise engine.
//!
//! A trial's faults are sampled once per trial by [`FaultPlan`] into an
//! ordered list of [`TrialFault`]s, and realized by one walker,
//! [`inject`]: idle faults are applied just before their gate,
//! depolarizing faults just after it. The walker drives a
//! [`FaultSink`], which is either a dense [`StateVector`] (apply the
//! gate, apply the Pauli as a gate) or a [`PauliMask`] frame (conjugate
//! through the gate, compose the Pauli). [`flip_mask`] walks the last
//! stretch of a trial, including trailing `End` faults, as a frame and
//! returns the measured bits it flips.
//!
//! The engines differ only in where they split the walk:
//!
//! * [`crate::TrajectoryEngine`] evolves the state through the window
//!   from the first fault to the measurement cut ([`meas_cut`]), then
//!   turns the diagonal tail's faults into bit flips;
//! * [`crate::StabilizerEngine`] walks the same window as a frame, then
//!   takes the same tail flips;
//! * [`crate::PropagationEngine`] walks every fault as one frame to the
//!   end of the circuit. `PauliMask::conjugate_through` is GF(2)-linear
//!   for every gate (non-Clifford gates act as the identity), so one
//!   walk equals the XOR of walking each fault alone.

use std::ops::Range;

use rand::Rng;

use crate::circuit::Circuit;
use crate::gates::{Gate, GateQubits};
use crate::noise::{NoiseModel, Pauli, PauliFault};
use crate::propagation::PauliMask;
use crate::statevector::StateVector;

/// One fault event within a trial.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TrialFault {
    /// Idle-decoherence fault on `qubit` just before gate `idx`.
    BeforeGate {
        idx: usize,
        qubit: usize,
        pauli: Pauli,
    },
    /// Depolarizing fault on the operands of gate `idx`.
    AfterGate { idx: usize, fault: PauliFault },
    /// Idle fault after a qubit's last gate, before measurement.
    End { qubit: usize, pauli: Pauli },
}

/// The gate index at which the first of `faults` strikes: its gate for
/// a gate fault, `gate_count` for an `End` fault or an empty list. Gates
/// before it run noise-free.
pub(crate) fn first_site(faults: &[TrialFault], gate_count: usize) -> usize {
    match faults.first() {
        Some(TrialFault::BeforeGate { idx, .. } | TrialFault::AfterGate { idx, .. }) => *idx,
        Some(TrialFault::End { .. }) | None => gate_count,
    }
}

/// The per-location fault model of one circuit on one device: where
/// faults can strike and how likely they are. Every engine samples its
/// faults here, so engines that share per-trial RNG streams draw
/// **identical** fault configurations, the foundation of the dense and
/// stabilizer engines' exact-counts agreement on circuits that are
/// Clifford up to the measurement cut.
pub(crate) struct FaultPlan {
    /// Fault probability per gate location.
    gate_ps: Vec<f64>,
    /// Whether the gate at each location is two-qubit (a two-qubit
    /// depolarizing fault draws from 15 Paulis instead of 3).
    two_qubit: Vec<bool>,
    /// Per-gate `(qubit, idle_moments)` waits (empty without idle noise).
    idle_before: Vec<Vec<(usize, usize)>>,
    /// Trailing idle moments per qubit before measurement.
    idle_trailing: Vec<usize>,
    idle_rate: f64,
}

/// How an idle period draws its faults.
#[derive(Clone, Copy)]
enum IdleDraw {
    /// One geometric skip per fault, plus one.
    Geometric,
    /// One Bernoulli draw per idle moment.
    PerMoment,
}

impl FaultPlan {
    pub(crate) fn new(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let gate_ps = circuit
            .gates()
            .iter()
            .map(|g| match g.qubits() {
                GateQubits::One(q) => noise.p1_for(q),
                GateQubits::Two(a, b) => noise.p2_for(a, b),
            })
            .collect();
        let two_qubit = circuit.gates().iter().map(Gate::is_two_qubit).collect();
        let idle_rate = noise.idle();
        let (idle_before, idle_trailing) = if idle_rate > 0.0 {
            circuit.idle_periods()
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            gate_ps,
            two_qubit,
            idle_before,
            idle_trailing,
            idle_rate,
        }
    }

    /// Samples one trial's fault configuration into `faults`, ordered by
    /// gate index with `End` faults last.
    ///
    /// Idle periods draw a single geometric/binomial sample per period
    /// (one RNG draw per *fault* plus one, instead of one per idle
    /// *moment*): the distribution-preserving replacement for
    /// [`sample_faults_per_moment`](Self::sample_faults_per_moment).
    pub(crate) fn sample_faults<R: Rng + ?Sized>(&self, faults: &mut Vec<TrialFault>, rng: &mut R) {
        self.sample(faults, rng, IdleDraw::Geometric);
    }

    /// [`sample_faults`](Self::sample_faults) with one Bernoulli draw per
    /// idle moment: the original sampler, whose RNG stream
    /// [`crate::PropagationEngine`] and
    /// [`crate::TrajectoryEngine::sample_reference`] keep.
    pub(crate) fn sample_faults_per_moment<R: Rng + ?Sized>(
        &self,
        faults: &mut Vec<TrialFault>,
        rng: &mut R,
    ) {
        self.sample(faults, rng, IdleDraw::PerMoment);
    }

    fn sample<R: Rng + ?Sized>(&self, faults: &mut Vec<TrialFault>, rng: &mut R, idle: IdleDraw) {
        let rate = self.idle_rate;
        for (i, (&p, &two)) in self.gate_ps.iter().zip(&self.two_qubit).enumerate() {
            if rate > 0.0 {
                for &(q, moments) in &self.idle_before[i] {
                    for_each_idle_hit(idle, rng, moments, rate, |rng| {
                        faults.push(TrialFault::BeforeGate {
                            idx: i,
                            qubit: q,
                            pauli: Pauli::random(rng),
                        });
                    });
                }
            }
            if p > 0.0 && rng.gen::<f64>() < p {
                let fault = if two {
                    PauliFault::random_double(rng)
                } else {
                    PauliFault::random_single(rng)
                };
                faults.push(TrialFault::AfterGate { idx: i, fault });
            }
        }
        if rate > 0.0 {
            for (q, &moments) in self.idle_trailing.iter().enumerate() {
                for_each_idle_hit(idle, rng, moments, rate, |rng| {
                    faults.push(TrialFault::End {
                        qubit: q,
                        pauli: Pauli::random(rng),
                    });
                });
            }
        }
    }
}

/// Calls `hit` once per fault in an idle period of `moments` slots with
/// per-moment fault probability `rate`.
///
/// [`IdleDraw::Geometric`] skips fault-free moments with geometric
/// jumps: `floor(ln(1−u) / ln(1−rate))` failures precede each success,
/// so the total count is exactly `Binomial(moments, rate)`-distributed
/// at a cost of one uniform draw per fault plus one.
fn for_each_idle_hit<R, F>(idle: IdleDraw, rng: &mut R, moments: usize, rate: f64, mut hit: F)
where
    R: Rng + ?Sized,
    F: FnMut(&mut R),
{
    if let IdleDraw::PerMoment = idle {
        for _ in 0..moments {
            if rng.gen::<f64>() < rate {
                hit(rng);
            }
        }
        return;
    }
    if moments == 0 || rate <= 0.0 {
        return;
    }
    if rate >= 1.0 {
        for _ in 0..moments {
            hit(rng);
        }
        return;
    }
    let denom = (1.0 - rate).ln();
    let mut pos = 0usize;
    loop {
        let u: f64 = rng.gen();
        // (1 − u) ∈ (0, 1]: the ratio is a finite non-negative float;
        // the saturating `as` cast handles the enormous-skip tail.
        let skip = ((1.0 - u).ln() / denom) as usize;
        match pos.checked_add(skip) {
            Some(p) if p < moments => {
                hit(rng);
                pos = p + 1;
            }
            _ => break,
        }
    }
}

/// What [`inject`] drives: a register that takes gates and Pauli faults.
pub(crate) trait FaultSink {
    /// Applies one circuit gate.
    fn gate(&mut self, gate: Gate);
    /// Applies a Pauli fault on `qubit`.
    fn pauli(&mut self, pauli: Pauli, qubit: usize);
}

impl FaultSink for StateVector {
    fn gate(&mut self, gate: Gate) {
        self.apply_gate(gate);
    }

    fn pauli(&mut self, pauli: Pauli, qubit: usize) {
        self.apply_gate(pauli_gate(pauli, qubit));
    }
}

/// A Pauli frame: phases are dropped, which measurement never sees.
impl FaultSink for PauliMask {
    fn gate(&mut self, gate: Gate) {
        *self = self.conjugate_through(gate);
    }

    fn pauli(&mut self, pauli: Pauli, qubit: usize) {
        *self = self.compose(PauliMask::single(pauli, qubit));
    }
}

/// The fault-injection walk: drives `sink` through `circuit.gates()[gates]`
/// with the leading gate faults of `faults` injected, each idle fault
/// just before its gate and each depolarizing fault just after it.
/// Returns how many faults it consumed; the walk stops taking faults at
/// the first one past `gates` (every `End` fault is past it).
///
/// `faults` must be ordered by gate index with `End` faults last, and
/// hold no gate fault before `gates.start`.
pub(crate) fn inject<S: FaultSink>(
    circuit: &Circuit,
    faults: &[TrialFault],
    gates: Range<usize>,
    sink: &mut S,
) -> usize {
    let all = circuit.gates();
    let mut next = 0usize;
    for gi in gates {
        let g = all[gi];
        while let Some(&TrialFault::BeforeGate { idx, qubit, pauli }) = faults.get(next) {
            if idx != gi {
                break;
            }
            sink.pauli(pauli, qubit);
            next += 1;
        }
        sink.gate(g);
        while let Some(&TrialFault::AfterGate { idx, fault }) = faults.get(next) {
            if idx != gi {
                break;
            }
            let (qa, qb) = match g.qubits() {
                GateQubits::One(a) => (a, None),
                GateQubits::Two(a, b) => (a, Some(b)),
            };
            if let Some(p) = fault.first {
                sink.pauli(p, qa);
            }
            if let (Some(p), Some(b)) = (fault.second, qb) {
                sink.pauli(p, b);
            }
            next += 1;
        }
    }
    next
}

/// The measurement bit-flip mask of `faults`: they are walked as one
/// Pauli frame from the first fault's gate to the end of the circuit,
/// `End` faults are composed last, and the frame's X component (X and
/// Y flip their qubit's outcome bit, Z does not) is returned.
///
/// Exact when every gate walked is Clifford or diagonal. Diagonal gates
/// never change the X component, so faults in the diagonal measurement
/// tail reduce to plain bit flips. Registers run to 128 bits, so dense
/// callers truncate to their `u64` width.
pub(crate) fn flip_mask(circuit: &Circuit, faults: &[TrialFault]) -> u128 {
    let gate_count = circuit.gate_count();
    let mut frame = PauliMask::identity();
    let walked = inject(
        circuit,
        faults,
        first_site(faults, gate_count)..gate_count,
        &mut frame,
    );
    for f in &faults[walked..] {
        if let TrialFault::End { qubit, pauli } = *f {
            frame.pauli(pauli, qubit);
        }
    }
    frame.x
}

/// Length of the shortest gate prefix whose suffix is entirely diagonal.
/// Diagonal gates commute with Z-basis measurement, so the engines stop
/// evolving here and treat faults at or past the cut as bit flips
/// ([`flip_mask`]).
pub(crate) fn meas_cut(circuit: &Circuit) -> usize {
    let gates = circuit.gates();
    gates.len() - gates.iter().rev().take_while(|g| g.is_diagonal()).count()
}

/// The gate realizing a Pauli error on qubit `q`.
pub(crate) fn pauli_gate(p: Pauli, q: usize) -> Gate {
    match p {
        Pauli::X => Gate::X(q),
        Pauli::Y => Gate::Y(q),
        Pauli::Z => Gate::Z(q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::ReadoutError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A random circuit over every gate kind, Clifford or not.
    fn mixed_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..len {
            let q = rng.gen_range(0..n);
            let b = (q + rng.gen_range(1..n)) % n;
            let theta = rng.gen_range(-3.0..3.0);
            match rng.gen_range(0..14u8) {
                0 => c.h(q),
                1 => c.s(q),
                2 => c.push(Gate::Sdg(q)),
                3 => c.push(Gate::SqrtX(q)),
                4 => c.x(q),
                5 => c.y(q),
                6 => c.t(q),
                7 => c.rx(q, theta),
                8 => c.rz(q, theta),
                9 => c.rz(q, std::f64::consts::FRAC_PI_2),
                10 => c.cx(q, b),
                11 => c.cz(q, b),
                12 => c.swap(q, b),
                _ => c.zz(q, b, theta),
            };
        }
        c
    }

    /// One frame walk over a trial's faults equals the XOR of walking
    /// each fault alone: conjugation is GF(2)-linear for every gate.
    #[test]
    fn one_frame_walk_equals_xor_of_single_fault_walks() {
        let mut rng = StdRng::seed_from_u64(12);
        let noise = NoiseModel::uniform(6, 0.05, 0.1, ReadoutError::ideal()).with_idle_rate(0.05);
        let mut faults = Vec::new();
        for _ in 0..200 {
            let circuit = mixed_circuit(6, 30, &mut rng);
            let plan = FaultPlan::new(&circuit, &noise);
            faults.clear();
            plan.sample_faults(&mut faults, &mut rng);
            let separate = faults.iter().fold(0, |acc, f| {
                acc ^ flip_mask(&circuit, std::slice::from_ref(f))
            });
            assert_eq!(flip_mask(&circuit, &faults), separate, "{faults:?}");
        }
    }
}
