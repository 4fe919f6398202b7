//! Pins the stabilizer subsystem to the dense simkernel — the
//! correctness oracle.
//!
//! Three layers of agreement, strongest first:
//!
//! 1. **Exact counts**: on circuits that are Clifford up to the
//!    measurement cut (non-Clifford gates, if any, only in the diagonal
//!    measurement tail) at dense-simulable widths,
//!    `StabilizerEngine::sample` must reproduce
//!    `TrajectoryEngine::sample` **bit-for-bit** under a fixed seed —
//!    same per-trial RNG streams, same fault configurations, same
//!    single-draw outcome resolution — at every thread-count pairing.
//! 2. **Support**: the tableau's closed-form [`OutputSupport`] must
//!    equal the dense state vector's measurement support, with uniform
//!    probability on every member.
//! 3. **Statistics**: past the dense cap (where no oracle exists) the
//!    wide path must still show the paper's Hamming behavior — errors
//!    clustered near the correct outcomes.

use hammer_dist::{metrics, BitString};
use hammer_sim::stabilizer::Tableau;
use hammer_sim::{
    AutoEngine, Circuit, DeviceModel, Gate, NoiseModel, ReadoutError, StabilizerEngine,
    StateVector, TrajectoryEngine,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c
}

fn bv_like(n: usize) -> Circuit {
    // The BV shape on n qubits (qubit n−1 as ancilla), all-ones key.
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

/// A random Clifford circuit over the full tableau gate set, including
/// Clifford-angle Rz.
fn random_clifford(n: usize, gates: usize, seed: u64) -> Circuit {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..12u8) {
            0 => c.h(q),
            1 => c.x(q),
            2 => c.y(q),
            3 => c.z(q),
            4 => c.s(q),
            5 => c.push(Gate::Sdg(q)),
            6 => c.push(Gate::SqrtX(q)),
            7 => c.rz(
                q,
                f64::from(rng.gen_range(0..4u8)) * std::f64::consts::FRAC_PI_2,
            ),
            _ => {
                if n < 2 {
                    c.h(q)
                } else {
                    let mut b = rng.gen_range(0..n - 1);
                    if b >= q {
                        b += 1;
                    }
                    match rng.gen_range(0..3u8) {
                        0 => c.cx(q, b),
                        1 => c.cz(q, b),
                        _ => c.swap(q, b),
                    }
                }
            }
        };
    }
    c
}

/// Appends a random diagonal tail of `gates` gates after one T: every
/// non-Clifford diagonal kind (T, Tdg, arbitrary-angle Rz, ZZ) mixed
/// with the Clifford diagonals (S, CZ). The circuit stays Clifford up to
/// the measurement cut as long as its body is Clifford.
fn with_diagonal_tail(mut c: Circuit, gates: usize, seed: u64) -> Circuit {
    use rand::Rng;
    let n = c.num_qubits();
    let mut rng = StdRng::seed_from_u64(seed);
    c.t(rng.gen_range(0..n));
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..6u8) {
            0 => c.t(q),
            1 => c.push(Gate::Tdg(q)),
            2 => c.rz(q, rng.gen_range(-3.0..3.0)),
            3 => c.s(q),
            _ if n < 2 => c.t(q),
            op => {
                let mut b = rng.gen_range(0..n - 1);
                if b >= q {
                    b += 1;
                }
                if op == 4 {
                    c.zz(q, b, rng.gen_range(-3.0..3.0))
                } else {
                    c.cz(q, b)
                }
            }
        };
    }
    c
}

/// The devices the exact-equality sweep runs on: noiseless, a noisy
/// preset with biased readout and per-qubit variation, and an
/// idle-noise-dominated model.
fn devices(n: usize) -> Vec<DeviceModel> {
    let idle = DeviceModel::new(
        "idle-heavy",
        hammer_sim::CouplingMap::full(n),
        NoiseModel::uniform(n, 0.002, 0.01, ReadoutError::new(0.01, 0.03)).with_idle_rate(0.01),
    );
    vec![
        DeviceModel::noiseless(n),
        DeviceModel::ibm_paris(n.min(27)),
        idle,
    ]
}

/// The keystone: exact counts equality between the two engines.
fn assert_engines_agree(circuit: &Circuit, device: &DeviceModel, trials: u64, seed: u64) {
    let dense = TrajectoryEngine::new(device)
        .with_threads(1)
        .sample(circuit, trials, &mut StdRng::seed_from_u64(seed))
        .expect("dense sample");
    for threads in [1usize, 2, 7] {
        let stab = StabilizerEngine::new(device)
            .with_threads(threads)
            .sample(circuit, trials, &mut StdRng::seed_from_u64(seed))
            .expect("stabilizer sample");
        assert_eq!(
            stab,
            dense,
            "stabilizer({threads} threads) != dense on {}-qubit circuit (seed {seed})",
            circuit.num_qubits()
        );
    }
    // And the dense engine at other thread counts (both sides of the
    // {1,2,7} × {1,2,7} matrix reduce to this diagonal).
    for threads in [2usize, 7] {
        let dense_t = TrajectoryEngine::new(device)
            .with_threads(threads)
            .sample(circuit, trials, &mut StdRng::seed_from_u64(seed))
            .expect("dense sample");
        assert_eq!(dense_t, dense, "dense thread-count variance");
    }
}

#[test]
fn engines_agree_exactly_on_ghz_all_widths() {
    for n in 1..=12 {
        let circuit = ghz(n);
        for device in devices(n) {
            assert_engines_agree(&circuit, &device, 400, 0xA11CE ^ n as u64);
        }
    }
}

#[test]
fn engines_agree_exactly_on_bv_all_widths() {
    for n in 2..=12 {
        let circuit = bv_like(n);
        for device in devices(n) {
            assert_engines_agree(&circuit, &device, 400, 0xB0B ^ n as u64);
        }
    }
}

#[test]
fn engines_agree_exactly_on_random_cliffords() {
    for (i, &(n, gates)) in [(1, 8), (3, 20), (5, 40), (8, 60), (12, 90)]
        .iter()
        .enumerate()
    {
        let circuit = random_clifford(n, gates, 0x5EED + i as u64);
        for device in devices(n) {
            assert_engines_agree(&circuit, &device, 300, 0xC11F ^ i as u64);
        }
    }
}

#[test]
fn engines_agree_exactly_with_a_non_clifford_diagonal_tail() {
    for n in 1..=12 {
        let bodies = [
            ghz(n),
            bv_like(n.max(2)),
            random_clifford(n, 5 * n + 4, 0x7A11 + n as u64),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let circuit = with_diagonal_tail(body, n + 4, 0xD1A6 ^ (n * 3 + i) as u64);
            assert!(!circuit.is_clifford(), "the tail must hold a T");
            for device in devices(circuit.num_qubits()) {
                assert_engines_agree(&circuit, &device, 300, 0x7A1 ^ (n * 3 + i) as u64);
            }
        }
    }
}

#[test]
fn auto_engine_routes_without_changing_results() {
    let n = 9;
    let device = DeviceModel::ibm_paris(n);
    let circuit = ghz(n);
    let auto = AutoEngine::new(&device)
        .sample(&circuit, 500, &mut StdRng::seed_from_u64(33))
        .unwrap();
    let stab = StabilizerEngine::new(&device)
        .sample(&circuit, 500, &mut StdRng::seed_from_u64(33))
        .unwrap();
    assert_eq!(auto, stab);
    assert_eq!(AutoEngine::new(&device).route(&circuit), "stabilizer");
    // A non-Clifford circuit routes densely and still works.
    let mut t = Circuit::new(4);
    t.h(0).t(0).cx(0, 1).rz(1, 0.3);
    let device4 = DeviceModel::ibm_paris(4);
    let engine = AutoEngine::new(&device4);
    assert_eq!(engine.route(&t), "trajectory");
    let auto = engine
        .sample(&t, 400, &mut StdRng::seed_from_u64(44))
        .unwrap();
    let dense = TrajectoryEngine::new(&device4)
        .sample(&t, 400, &mut StdRng::seed_from_u64(44))
        .unwrap();
    assert_eq!(auto, dense);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tableau's closed-form support equals the dense state's
    /// support, member for member, with uniform probability mass.
    #[test]
    fn support_matches_dense_state(n in 1usize..=10, gates in 0usize..60, seed in 0u64..500) {
        let circuit = random_clifford(n, gates, seed);
        let support = Tableau::from_circuit(&circuit).output_support();
        let sv = StateVector::from_circuit(&circuit);
        let k = support.rank();
        let p_expected = 1.0 / (1u64 << k) as f64;
        let members = support.enumerate();
        // Members are exactly the states carrying probability mass.
        let mut total = 0.0;
        for &m in &members {
            let p = sv.probability(BitString::from_u128(m, n));
            prop_assert!(
                (p - p_expected).abs() < 1e-9,
                "member {m:#b} has p={p}, expected {p_expected}"
            );
            total += p;
        }
        prop_assert!((total - 1.0).abs() < 1e-9, "support mass {total}");
        // Enumeration ascends (the rank map is monotone).
        for w in members.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// CHP measurement sampling lands inside the closed-form support.
    #[test]
    fn chp_measurement_stays_in_support(n in 1usize..=8, gates in 0usize..40, seed in 0u64..200) {
        let circuit = random_clifford(n, gates, seed);
        let support = Tableau::from_circuit(&circuit).output_support();
        let members = support.enumerate();
        let outcome = Tableau::from_circuit(&circuit)
            .measure_all(&mut StdRng::seed_from_u64(seed ^ 0xFEED));
        prop_assert!(members.contains(&outcome.as_u128()));
    }

    /// Exact engine equality on random Clifford circuits under random
    /// seeds — the property-suite form of the keystone.
    #[test]
    fn engines_agree_exactly_property(
        n in 1usize..=12,
        gates in 0usize..50,
        circuit_seed in 0u64..1000,
        sample_seed in 0u64..1000,
    ) {
        let circuit = random_clifford(n, gates, circuit_seed);
        let device = DeviceModel::ibm_paris(n);
        let dense = TrajectoryEngine::new(&device)
            .with_threads(2)
            .sample(&circuit, 200, &mut StdRng::seed_from_u64(sample_seed))
            .expect("dense sample");
        let stab = StabilizerEngine::new(&device)
            .with_threads(3)
            .sample(&circuit, 200, &mut StdRng::seed_from_u64(sample_seed))
            .expect("stabilizer sample");
        prop_assert_eq!(stab, dense);
    }
}

#[test]
fn wide_ghz_statistics_show_hamming_clustering() {
    // No dense oracle exists at 80 qubits; check the §3 behavior the
    // paper rests on: errors cluster close to the correct outcomes.
    let n = 80;
    let device = DeviceModel::google_sycamore(n);
    let dist = StabilizerEngine::new(&device)
        .sample(&ghz(n), 3000, &mut StdRng::seed_from_u64(2))
        .unwrap()
        .to_distribution();
    let correct = [BitString::zeros(n), BitString::ones(n)];
    let pst = metrics::pst(&dist, &correct);
    let ehd = metrics::ehd(&dist, &correct);
    assert!(pst > 0.02 && pst < 0.999, "pst {pst}");
    assert!(
        ehd < f64::from(n as u32) / 4.0,
        "ehd {ehd} should sit far below uniform n/2"
    );
}

#[test]
fn high_rank_support_sampling_reaches_every_qubit() {
    // Regression: a 100-qubit all-H circuit has support rank 100 —
    // more rank bits than one f64 draw carries (53). The sampler must
    // supplement the low rank bits from extra integer draws so the
    // low-lead basis vectors (qubits 0..47) stay reachable.
    let n = 100;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    let device = DeviceModel::noiseless(n);
    let trials = 2000u64;
    let counts = StabilizerEngine::new(&device)
        .sample(&c, trials, &mut StdRng::seed_from_u64(6))
        .unwrap();
    // Uniform over 2^100: collisions are essentially impossible…
    assert_eq!(counts.len() as u64, trials);
    // …and every qubit — in particular those below bit 47 — must flip
    // about half the time.
    for q in [0usize, 20, 46, 47, 53, 77, 99] {
        let ones: u64 = counts
            .iter()
            .filter(|(x, _)| x.bit(q))
            .map(|(_, c)| c)
            .sum();
        let frac = ones as f64 / trials as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "qubit {q} one-fraction {frac} (low rank bits lost?)"
        );
    }
}

#[test]
fn wide_noiseless_bv_recovers_the_key_exactly() {
    // 100 data qubits + ancilla on a noiseless device: every trial
    // must produce the key (deterministic stabilizer measurement).
    let n = 101;
    let circuit = bv_like(n);
    let device = DeviceModel::noiseless(n);
    let counts = StabilizerEngine::new(&device)
        .sample(&circuit, 64, &mut StdRng::seed_from_u64(10))
        .unwrap();
    assert_eq!(counts.len(), 1);
    let (outcome, c) = counts.iter().next().unwrap();
    assert_eq!(c, 64);
    assert_eq!(outcome, BitString::ones(n)); // all-ones key + ancilla 1
}
