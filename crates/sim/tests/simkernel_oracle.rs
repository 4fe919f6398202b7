//! Oracle property suite for the state-vector kernel subsystem: the
//! specialized serial kernels and the checkpointed trajectory machinery
//! are pinned to the original scalar kernels (`simkernel::reference`)
//! to `≤ 1e-12` amplitude agreement across gate types and register
//! widths 1..=12; the trajectory engine is additionally pinned to
//! produce *identical* histograms at thread counts {1, 2, 7} for a
//! fixed seed.

use hammer_dist::Counts;
use hammer_sim::simkernel::reference;
use hammer_sim::{
    Circuit, Complex, DeviceModel, Gate, NoiseModel, ReadoutError, StateVector, TrajectoryEngine,
    C_ONE, C_ZERO,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: an arbitrary gate on an `n`-qubit register, covering every
/// variant of the gate set.
fn gate(n: usize) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let q2 = move || {
        (0..n, 0..n.max(2) - 1).prop_map(move |(a, mut b)| {
            if b >= a {
                b += 1;
            }
            (a, b)
        })
    };
    let one_qubit = prop_oneof![
        q.clone().prop_map(Gate::H),
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::Y),
        q.clone().prop_map(Gate::Z),
        q.clone().prop_map(Gate::S),
        q.clone().prop_map(Gate::Sdg),
        q.clone().prop_map(Gate::T),
        q.clone().prop_map(Gate::Tdg),
        q.clone().prop_map(Gate::SqrtX),
        q.clone().prop_map(Gate::SqrtXdg),
        (q.clone(), -3.0f64..3.0).prop_map(|(a, t)| Gate::Rx(a, t)),
        (q.clone(), -3.0f64..3.0).prop_map(|(a, t)| Gate::Ry(a, t)),
        (q.clone(), -3.0f64..3.0).prop_map(|(a, t)| Gate::Rz(a, t)),
    ];
    if n < 2 {
        one_qubit.boxed()
    } else {
        prop_oneof![
            one_qubit,
            q2().prop_map(|(a, b)| Gate::Cx(a, b)),
            q2().prop_map(|(a, b)| Gate::Cz(a, b)),
            q2().prop_map(|(a, b)| Gate::Swap(a, b)),
            (q2(), -2.0f64..2.0).prop_map(|((a, b), g)| Gate::Zz(a, b, g)),
        ]
        .boxed()
    }
}

/// Strategy: a random circuit on 1..=12 qubits. A Hadamard layer in
/// front spreads amplitude over the whole register so every kernel
/// touches non-trivial data.
fn circuit() -> impl Strategy<Value = Circuit> {
    (1usize..=12)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec(gate(n), 1..30)))
        .prop_map(|(n, gates)| {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            for g in gates {
                c.push(g);
            }
            c
        })
}

/// The final amplitudes of `circuit` run on `|00…0⟩` through the
/// scalar reference kernels.
fn reference_state(circuit: &Circuit) -> Vec<Complex> {
    let mut amps = vec![C_ZERO; 1 << circuit.num_qubits()];
    amps[0] = C_ONE;
    for &g in circuit.gates() {
        reference::apply_gate(&mut amps, g);
    }
    amps
}

fn max_amp_diff(a: &[Complex], b: &StateVector) -> f64 {
    a.iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0f64, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Specialized serial kernels match the scalar reference.
    #[test]
    fn specialized_kernels_match_reference(c in circuit()) {
        let fast = StateVector::from_circuit(&c);
        let diff = max_amp_diff(&reference_state(&c), &fast);
        prop_assert!(diff <= 1e-12, "specialized kernels drift: {diff:e}");
    }

    /// The checkpoint fork machinery — evolve a shared prefix once,
    /// fork by buffer copy, inject Paulis, evolve the suffix — matches
    /// a from-scratch reference simulation of the same faulty circuit.
    #[test]
    fn checkpointed_fork_matches_reference(
        c in circuit(),
        cut_frac in 0.0f64..1.0,
        fault_bits in 0u32..64,
    ) {
        let n = c.num_qubits();
        let gates = c.gates();
        let cut = ((gates.len() as f64) * cut_frac) as usize;

        // Derive a small deterministic fault set at the cut point.
        let paulis = [
            |q| Gate::X(q),
            |q: usize| Gate::Y(q),
            |q| Gate::Z(q),
        ];
        let faults: Vec<Gate> = (0..3)
            .filter(|k| fault_bits & (1 << k) != 0)
            .map(|k| paulis[k as usize]((fault_bits as usize >> 3) % n))
            .collect();

        // Reference: simulate prefix + faults + suffix from scratch.
        let mut full = Circuit::new(n);
        for &g in &gates[..cut] {
            full.push(g);
        }
        for &f in &faults {
            full.push(f);
        }
        for &g in &gates[cut..] {
            full.push(g);
        }
        let want = reference_state(&full);

        // Checkpoint path: shared prefix, forked scratch, suffix only.
        let mut prefix = StateVector::new(n);
        for &g in &gates[..cut] {
            prefix.apply_gate(g);
        }
        let mut scratch = StateVector::new(n);
        scratch.copy_from(&prefix);
        for &f in &faults {
            scratch.apply_gate(f);
        }
        for &g in &gates[cut..] {
            scratch.apply_gate(g);
        }
        let diff = max_amp_diff(&want, &scratch);
        prop_assert!(diff <= 1e-12, "checkpoint fork drift: {diff:e}");
    }
}

/// A device whose noise model exercises every fault source: gate
/// depolarizing, idle decoherence and readout error.
fn noisy_device(n: usize) -> DeviceModel {
    let coupling = hammer_sim::CouplingMap::full(n);
    let noise =
        NoiseModel::uniform(n, 0.004, 0.03, ReadoutError::new(0.01, 0.03)).with_idle_rate(0.015);
    DeviceModel::new("oracle", coupling, noise)
}

/// A circuit with genuine idle periods (a qubit waits for the ladder).
fn laddered(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.t(q);
    }
    c.cx(0, n - 1);
    c
}

fn sample_with(device: &DeviceModel, circuit: &Circuit, trials: u64, threads: usize) -> Counts {
    TrajectoryEngine::new(device)
        .with_threads(threads)
        .sample(circuit, trials, &mut StdRng::seed_from_u64(77))
        .unwrap()
}

/// GHZ-16 plus a T gate: non-Clifford, so it stays on the dense engine,
/// at the register width the serving workload simulates.
fn ghz16_t() -> Circuit {
    let mut c = Circuit::new(16);
    c.h(0);
    for q in 0..15 {
        c.cx(q, q + 1);
    }
    c.t(15);
    c
}

/// Fixed seed ⇒ identical `Counts` at any thread count (the
/// determinism contract the per-trial RNG streams provide).
#[test]
fn engine_counts_identical_across_thread_counts() {
    let cases = [
        ("laddered-6", noisy_device(6), laddered(6), 700),
        ("ghz16+t", DeviceModel::ibm_paris(16), ghz16_t(), 400),
    ];
    for (name, device, circuit, trials) in &cases {
        let one = sample_with(device, circuit, *trials, 1);
        for threads in [2usize, 7] {
            assert_eq!(
                sample_with(device, circuit, *trials, threads),
                one,
                "{name}: threads={threads}"
            );
        }
    }
}
