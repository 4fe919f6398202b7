//! Golden fixed-seed histograms for every production noise engine.
//!
//! The oracle suites compare engines against each other and across
//! thread counts; this suite pins what each engine actually returns for
//! a fixed seed, as a [`Counts::fingerprint`]. A refactor of the fault
//! walk, the fault sampler or the outcome draw that shifts a single
//! trial fails here. Together the cases hit every fault kind: idle
//! faults before a gate, one- and two-qubit depolarizing faults after
//! it, trailing `End` faults, faults in the diagonal measurement tail,
//! and non-Clifford gates before and inside the fault window.
//!
//! A deliberate change to an RNG stream must re-capture these values
//! and say so in its change notes.

use hammer_dist::Counts;
use hammer_sim::{
    AutoEngine, Circuit, CouplingMap, DeviceModel, Gate, NoiseModel, PropagationEngine,
    ReadoutError, StabilizerEngine, TrajectoryEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gate depolarizing, idle decoherence and readout error together.
fn idle_device(n: usize) -> DeviceModel {
    let noise =
        NoiseModel::uniform(n, 0.004, 0.03, ReadoutError::new(0.01, 0.03)).with_idle_rate(0.015);
    DeviceModel::new("oracle", CouplingMap::full(n), noise)
}

/// A CX ladder with a layer of T gates inside the fault window (the
/// last gate is a CX, so there is no diagonal tail).
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

/// GHZ-16 plus a T gate: the T is the whole diagonal tail.
fn ghz16_t() -> Circuit {
    let mut c = Circuit::new(16);
    c.h(0);
    for q in 0..15 {
        c.cx(q, q + 1);
    }
    c.t(15);
    c
}

/// An early non-Clifford Rx, a CX ladder, then a long diagonal tail of
/// one- and two-qubit gates on which idle faults also land.
fn diagonal_tail(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0).rx(1, 0.3);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.t(q);
    }
    c.cz(0, n - 1).rz(2, 0.7).zz(1, 3, 0.4).s(4);
    c
}

/// Two QAOA-style layers: ZZ(γ) cost terms on a ring, then an Rx mixer.
fn qaoa_ring(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for (gamma, beta) in [(0.7, 0.4), (1.1, 0.25)] {
        for q in 0..n {
            c.zz(q, (q + 1) % n, gamma);
        }
        for q in 0..n {
            c.rx(q, 2.0 * beta);
        }
    }
    c
}

/// The Bernstein–Vazirani shape, all-ones key, ancilla last.
fn bv(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    let anc = n - 1;
    c.x(anc);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..anc {
        c.cx(q, anc);
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// A Clifford GHZ with a diagonal Clifford tail (S, Z, CZ), so the
/// stabilizer engine's tail flips and idle faults both fire.
fn ghz_clifford_tail(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.s(0).z(1).cz(2, n - 1).s(n - 1);
    c
}

/// A Clifford GHZ whose diagonal tail holds every non-Clifford kind:
/// T, Tdg, an arbitrary-angle Rz and a ZZ.
fn ghz_non_clifford_tail(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.t(0).push(Gate::Tdg(1));
    c.rz(2, 0.7).zz(3, n - 1, 0.4);
    c
}

fn seeded() -> StdRng {
    StdRng::seed_from_u64(0x5EED)
}

fn assert_golden(name: &str, counts: &Counts, trials: u64, want: u64) {
    assert_eq!(counts.total(), trials, "{name}: trial total");
    assert_eq!(
        counts.fingerprint(),
        want,
        "{name}: fixed-seed histogram changed (got {:#018x})",
        counts.fingerprint()
    );
}

#[test]
fn propagation_counts_are_pinned() {
    let cases: [(&str, DeviceModel, Circuit, u64, u64); 3] = [
        (
            "qaoa-ring-8",
            idle_device(8),
            qaoa_ring(8),
            3000,
            0xd39b_3da3_6148_c0ec,
        ),
        (
            "laddered-6",
            idle_device(6),
            laddered(6),
            3000,
            0xc4d0_ee0f_5d6e_6d3c,
        ),
        (
            "diagonal-tail-8",
            idle_device(8),
            diagonal_tail(8),
            3000,
            0x1bd5_e65a_f1e4_ebc8,
        ),
    ];
    for (name, device, circuit, trials, want) in &cases {
        let counts = PropagationEngine::new(device)
            .sample(circuit, *trials, &mut seeded())
            .unwrap();
        assert_golden(name, &counts, *trials, *want);
    }
}

#[test]
fn trajectory_counts_are_pinned_at_one_and_two_threads() {
    let cases: [(&str, DeviceModel, Circuit, u64, u64); 4] = [
        (
            "laddered-6",
            idle_device(6),
            laddered(6),
            2000,
            0x12ed_8c24_edd7_bcc9,
        ),
        (
            "ghz16+t",
            DeviceModel::ibm_paris(16),
            ghz16_t(),
            400,
            0x922f_0b2d_d15d_9947,
        ),
        (
            "diagonal-tail-8",
            idle_device(8),
            diagonal_tail(8),
            2000,
            0xb04a_3554_b106_c5ec,
        ),
        (
            "qaoa-ring-6",
            idle_device(6),
            qaoa_ring(6),
            2000,
            0x6f02_e32f_ff24_fe42,
        ),
    ];
    for (name, device, circuit, trials, want) in &cases {
        for threads in [1usize, 2] {
            let counts = TrajectoryEngine::new(device)
                .with_threads(threads)
                .sample(circuit, *trials, &mut seeded())
                .unwrap();
            assert_golden(
                &format!("{name} threads={threads}"),
                &counts,
                *trials,
                *want,
            );
        }
    }
}

#[test]
fn trajectory_reference_counts_are_pinned() {
    let cases: [(&str, DeviceModel, Circuit, u64, u64); 2] = [
        (
            "laddered-6",
            idle_device(6),
            laddered(6),
            1500,
            0xe550_c905_3c73_88d1,
        ),
        (
            "diagonal-tail-8",
            idle_device(8),
            diagonal_tail(8),
            1500,
            0x0287_6a5c_6193_cc2d,
        ),
    ];
    for (name, device, circuit, trials, want) in &cases {
        let counts = TrajectoryEngine::new(device)
            .sample_reference(circuit, *trials, &mut seeded())
            .unwrap();
        assert_golden(name, &counts, *trials, *want);
    }
}

#[test]
fn stabilizer_counts_are_pinned() {
    let cases: [(&str, DeviceModel, Circuit, u64, u64); 3] = [
        (
            "bv-12",
            idle_device(12),
            bv(12),
            3000,
            0x26ca_d659_cb43_dda6,
        ),
        (
            "bv-65",
            idle_device(65),
            bv(65),
            2000,
            0x8baf_a452_1b90_b48a,
        ),
        (
            "ghz-clifford-tail-10",
            idle_device(10),
            ghz_clifford_tail(10),
            3000,
            0xfbc8_74fc_ef5d_d4d0,
        ),
    ];
    for (name, device, circuit, trials, want) in &cases {
        for threads in [1usize, 2] {
            let counts = StabilizerEngine::new(device)
                .with_threads(threads)
                .sample(circuit, *trials, &mut seeded())
                .unwrap();
            assert_golden(
                &format!("{name} threads={threads}"),
                &counts,
                *trials,
                *want,
            );
        }
    }
}

/// `AutoEngine` on circuits that are Clifford up to a non-Clifford
/// diagonal tail, pinned to the trajectory engine's goldens: whichever
/// engine the router picks, the histogram is the dense engine's.
#[test]
fn auto_counts_are_pinned_at_one_and_two_threads() {
    let cases: [(&str, DeviceModel, Circuit, u64, u64); 2] = [
        (
            "ghz16+t",
            DeviceModel::ibm_paris(16),
            ghz16_t(),
            400,
            0x922f_0b2d_d15d_9947,
        ),
        (
            "ghz8+non-clifford-tail",
            idle_device(8),
            ghz_non_clifford_tail(8),
            2000,
            0x7cd8_36ef_1257_d6a0,
        ),
    ];
    for (name, device, circuit, trials, want) in &cases {
        for threads in [1usize, 2] {
            let counts = AutoEngine::new(device)
                .with_threads(threads)
                .sample(circuit, *trials, &mut seeded())
                .unwrap();
            assert_golden(
                &format!("{name} threads={threads}"),
                &counts,
                *trials,
                *want,
            );
        }
    }
}
