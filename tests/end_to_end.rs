//! Cross-crate integration tests: the full pipelines the paper's
//! evaluation is built on, exercised end to end.

use hammer::core::HammerConfig;
use hammer::prelude::*;
use hammer::sim::transpile;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_bv(bench: &BernsteinVazirani, device: &DeviceModel, trials: u64, seed: u64) -> Distribution {
    let routed = transpile(&bench.circuit(), device.coupling()).expect("routable");
    let mut rng = StdRng::seed_from_u64(seed);
    let physical = PropagationEngine::new(device)
        .sample(routed.circuit(), trials, &mut rng)
        .expect("sampling");
    bench
        .data_counts(&routed.logical_counts(&physical))
        .to_distribution()
}

#[test]
fn hammer_improves_bv_pst_on_average() {
    // A miniature Fig. 8(b): PST gains across keys, widths and devices.
    let hammer = Hammer::new();
    let mut gains = Vec::new();
    for (i, key_str) in ["10110", "1110011", "110101101", "10101010101"]
        .iter()
        .enumerate()
    {
        let key = BitString::parse(key_str).unwrap();
        let bench = BernsteinVazirani::new(key);
        let device = DeviceModel::ibm_manhattan(bench.num_qubits());
        let baseline = run_bv(&bench, &device, 4096, 0xE2E ^ i as u64);
        let after = hammer.reconstruct(&baseline);
        let gain = pst(&after, &[key]) / pst(&baseline, &[key]).max(1e-12);
        gains.push(gain);
    }
    let gmean = hammer::dist::stats::geometric_mean(&gains).unwrap();
    assert!(
        gmean > 1.05,
        "HAMMER should improve PST on average, gmean = {gmean} ({gains:?})"
    );
}

#[test]
fn hammer_boosts_ist_past_one_when_key_is_masked() {
    // Find a run where the key is NOT the most frequent outcome, then
    // check HAMMER re-ranks it (the Fig. 8a story). With a noisy enough
    // device and deep circuit this happens reliably.
    let key = BitString::parse("111111111111").unwrap();
    let bench = BernsteinVazirani::new(key);
    let device = DeviceModel::ibm_manhattan(bench.num_qubits());
    let baseline = run_bv(&bench, &device, 8192, 77);
    let after = Hammer::new().reconstruct(&baseline);
    assert!(
        ist(&after, &[key]) > ist(&baseline, &[key]),
        "IST must improve: {} -> {}",
        ist(&baseline, &[key]),
        ist(&after, &[key])
    );
}

#[test]
fn engines_cross_validate_on_bv() {
    // The propagation engine is an approximation; it must agree with
    // the exact trajectory engine on headline metrics for a shallow
    // circuit.
    let key = BitString::parse("101101").unwrap();
    let bench = BernsteinVazirani::new(key);
    let device = DeviceModel::ibm_paris(bench.num_qubits());
    let routed = transpile(&bench.circuit(), device.coupling()).expect("routable");

    let mut rng = StdRng::seed_from_u64(11);
    let prop = PropagationEngine::new(&device)
        .sample(routed.circuit(), 16384, &mut rng)
        .expect("sampling");
    let mut rng = StdRng::seed_from_u64(11);
    let traj = TrajectoryEngine::new(&device)
        .sample(routed.circuit(), 16384, &mut rng)
        .expect("sampling");

    let d_prop = bench
        .data_counts(&routed.logical_counts(&prop))
        .to_distribution();
    let d_traj = bench
        .data_counts(&routed.logical_counts(&traj))
        .to_distribution();

    let (p1, p2) = (pst(&d_prop, &[key]), pst(&d_traj, &[key]));
    assert!((p1 - p2).abs() < 0.08, "PST disagreement: {p1} vs {p2}");
    let (e1, e2) = (ehd(&d_prop, &[key]), ehd(&d_traj, &[key]));
    assert!((e1 - e2).abs() < 0.35, "EHD disagreement: {e1} vs {e2}");
}

#[test]
fn engines_cross_validate_on_qaoa() {
    // The QAOA runner samples on the approximate propagation engine; on
    // the routed circuit it must score like the exact trajectory engine.
    let mut rng = StdRng::seed_from_u64(4);
    let problem = MaxCut::new(generators::random_regular(6, 3, &mut rng));
    let c_min = problem.brute_force().c_min;
    let device = DeviceModel::ibm_paris(6);
    let params = QaoaParams::constant(2, 0.8, 0.6);
    let routed = transpile(
        &qaoa_maxcut(problem.graph(), params.layers()),
        device.coupling(),
    )
    .expect("routable");

    let mut rng = StdRng::seed_from_u64(21);
    let prop = PropagationEngine::new(&device)
        .sample(routed.circuit(), 8192, &mut rng)
        .expect("sampling");
    let mut rng = StdRng::seed_from_u64(21);
    let traj = TrajectoryEngine::new(&device)
        .sample(routed.circuit(), 8192, &mut rng)
        .expect("sampling");

    let cr = |counts: &Counts| {
        let logical = routed.logical_counts(counts).to_distribution();
        hammer::qaoa::expectation::cost_ratio(&logical, &problem, c_min)
    };
    let (cr_prop, cr_traj) = (cr(&prop), cr(&traj));
    assert!(
        (cr_prop - cr_traj).abs() < 0.12,
        "CR disagreement: propagation {cr_prop} vs trajectory {cr_traj}"
    );
}

#[test]
fn qaoa_hammer_beats_baseline_cr() {
    let mut rng = StdRng::seed_from_u64(9);
    let graph = generators::random_regular(8, 3, &mut rng);
    let runner = QaoaRunner::new(MaxCut::new(graph), DeviceModel::google_sycamore(8)).trials(8192);
    // Good p=1 angles from a coarse noiseless scan of this instance.
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for gi in 0..16 {
        for bi in 0..16 {
            let g = std::f64::consts::PI * gi as f64 / 16.0;
            let b = std::f64::consts::PI * bi as f64 / 16.0;
            let c = runner.ideal(&QaoaParams::constant(1, g, b)).c_exp;
            if c < best.0 {
                best = (c, g, b);
            }
        }
    }
    let params = QaoaParams::constant(1, best.1, best.2);
    assert!(
        runner.ideal(&params).cost_ratio > 0.2,
        "scan should find a decent schedule"
    );

    let mut rng = StdRng::seed_from_u64(33);
    let baseline = runner
        .run_with(&params, &PostProcess::ReadoutMitigation, &mut rng)
        .expect("pipeline");
    let mut rng = StdRng::seed_from_u64(33);
    let hammered = runner
        .run_with(
            &params,
            &PostProcess::MitigationThenHammer(HammerConfig::paper()),
            &mut rng,
        )
        .expect("pipeline");
    assert!(
        hammered.cost_ratio > baseline.cost_ratio,
        "CR should improve: {} -> {}",
        baseline.cost_ratio,
        hammered.cost_ratio
    );
}

#[test]
fn readout_mitigation_composes_with_hammer() {
    let key = BitString::parse("1011011").unwrap();
    let bench = BernsteinVazirani::new(key);
    let device = DeviceModel::ibm_manhattan(bench.num_qubits());
    let baseline = run_bv(&bench, &device, 8192, 5);

    // Mitigate with the data-register calibrations, then HAMMER.
    let cals: Vec<_> = (0..key.len()).map(|q| device.noise().readout(q)).collect();
    let mitigator = hammer::sim::ReadoutMitigator::new(cals);
    let mitigated = mitigator.mitigate(&baseline).expect("mitigation");
    let composed = Hammer::new().reconstruct(&mitigated);

    assert!(pst(&mitigated, &[key]) > pst(&baseline, &[key]));
    assert!(pst(&composed, &[key]) > pst(&mitigated, &[key]));
}

#[test]
fn ghz_errors_cluster_in_hamming_space() {
    // §3.1: the observation that started it all.
    let n = 10;
    let circuit = ghz(n);
    let device = DeviceModel::ibm_paris(n);
    let mut rng = StdRng::seed_from_u64(2);
    let dist = TrajectoryEngine::new(&device)
        .sample(&circuit, 8192, &mut rng)
        .expect("sampling")
        .to_distribution();
    let correct = ghz_correct_outcomes(n);

    let e = ehd(&dist, &correct);
    assert!(e < 2.0, "GHZ-10 EHD {e} should be far below n/2 = 5");

    // Dominant incorrect outcomes sit within distance 2 of a correct
    // answer.
    let mut incorrect: Vec<(BitString, f64)> =
        dist.iter().filter(|(x, _)| !correct.contains(x)).collect();
    incorrect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (x, _) in incorrect.iter().take(5) {
        assert!(
            x.min_distance_to(&correct) <= 2,
            "dominant error {x} too far from the GHZ branches"
        );
    }
}

#[test]
fn transpilation_preserves_noisy_pipeline_semantics() {
    // Routing must not change what the circuit computes: the noiseless
    // ideal distribution through the routed pipeline equals the direct
    // simulation.
    let mut rng = StdRng::seed_from_u64(13);
    let graph = generators::random_regular(6, 3, &mut rng);
    let circuit = qaoa_maxcut(&graph, &[QaoaLayer::new(0.7, 0.4)]);
    let device = DeviceModel::noiseless(6);
    // Use a constrained map to force SWAPs even on the noiseless device.
    let line = hammer::sim::CouplingMap::linear(6);
    let routed = transpile(&circuit, &line).expect("routable");
    assert!(routed.swaps_inserted() > 0, "expected routing work");

    let mut rng = StdRng::seed_from_u64(14);
    let physical = TrajectoryEngine::new(&device)
        .sample(routed.circuit(), 30_000, &mut rng)
        .expect("sampling");
    let sampled = routed.logical_counts(&physical).to_distribution();
    let exact = hammer::sim::simulate_ideal(&circuit);
    assert!(
        tvd(&sampled, &exact) < 0.03,
        "routed sampling deviates from ideal: tvd = {}",
        tvd(&sampled, &exact)
    );
}

#[test]
fn full_pipeline_is_deterministic_per_seed() {
    let key = BitString::parse("110110").unwrap();
    let bench = BernsteinVazirani::new(key);
    let device = DeviceModel::ibm_casablanca(bench.num_qubits());
    let a = run_bv(&bench, &device, 2048, 1);
    let b = run_bv(&bench, &device, 2048, 1);
    assert_eq!(a, b);
    assert_eq!(Hammer::new().reconstruct(&a), Hammer::new().reconstruct(&b));
}

#[test]
fn hammer_never_breaks_normalization_on_real_pipelines() {
    for width in [5usize, 8, 11] {
        let key = BitString::ones(width);
        let bench = BernsteinVazirani::new(key);
        let device = DeviceModel::ibm_manhattan(bench.num_qubits());
        let baseline = run_bv(&bench, &device, 2048, width as u64);
        let out = Hammer::new().reconstruct(&baseline);
        assert!((out.total_mass() - 1.0).abs() < 1e-9);
        assert_eq!(out.len(), baseline.len());
    }
}
