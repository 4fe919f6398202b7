//! Per-call telemetry of the compute core.
//!
//! The benchmark derives its `core.path.*` counts from two process-global
//! histograms: `core.reconstruct_ns` (one sample per reconstruct call)
//! and `core.ann.build_ns` (one sample per LSH-forest build). These tests
//! pin both counts per entry point. They live in a binary of their own,
//! and take a lock, because concurrent tests in one process would race on
//! the global series.

use std::sync::Mutex;

use hammer_core::{AnnTuning, CancelToken, Hammer, HammerConfig, KernelTuning, NeighborhoodLimit};
use hammer_dist::{BitString, Distribution};
use hammer_obs::Registry;

static SERIAL: Mutex<()> = Mutex::new(());

/// A pseudo-random support of `n` outcomes over `n_bits`-bit keys.
fn support(n: usize, n_bits: usize) -> Distribution {
    let mut state = 0x7E1E_3E72_u64;
    let pairs = (0..n).map(|i| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = u128::from(state) & ((1u128 << n_bits) - 1);
        (BitString::from_u128(key, n_bits), 1.0 + (i % 13) as f64)
    });
    Distribution::from_probs(n_bits, pairs).expect("positive weights")
}

/// A configuration that always takes the ANN path: a local
/// neighborhood (4 · 10 ≤ 64 bits) and a crossover below every support.
fn forced_ann() -> Hammer {
    let config = HammerConfig {
        neighborhood: NeighborhoodLimit::Fixed(10),
        kernel: KernelTuning {
            ann: AnnTuning {
                crossover: 2,
                trees: 3,
                ..AnnTuning::default()
            },
            ..KernelTuning::default()
        },
        ..HammerConfig::paper()
    };
    Hammer::with_config(config).with_threads(3)
}

/// How many samples `series` gains while `f` runs.
fn samples<T>(series: &str, f: impl FnOnce() -> T) -> (u64, T) {
    let hist = Registry::global().histogram(series);
    let before = hist.snapshot().count();
    let out = f();
    (hist.snapshot().count() - before, out)
}

#[test]
fn every_reconstruct_call_records_one_sample() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let token = CancelToken::new();
    for (d, h) in [
        (support(300, 24), Hammer::new().with_threads(1)),
        (support(300, 24), Hammer::new().with_threads(2)),
        (support(300, 100), Hammer::new().with_threads(2)),
        (support(300, 64), forced_ann()),
    ] {
        let (n, _) = samples("core.reconstruct_ns", || h.reconstruct(&d));
        assert_eq!(n, 1, "reconstruct, {} bits", d.n_bits());
        let (n, _) = samples("core.reconstruct_ns", || h.try_reconstruct(&d, &token));
        assert_eq!(n, 1, "try_reconstruct, {} bits", d.n_bits());
    }
}

#[test]
fn the_ann_path_builds_one_forest_per_call() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let d = support(600, 64);
    let h = forced_ann();
    let token = CancelToken::new();
    let (builds, direct) = samples("core.ann.build_ns", || h.reconstruct(&d));
    assert_eq!(builds, 1, "reconstruct");
    let (builds, tried) = samples("core.ann.build_ns", || h.try_reconstruct(&d, &token));
    assert_eq!(builds, 1, "try_reconstruct");
    assert_eq!(tried, Ok(direct.clone()));
    let (builds, trace) = samples("core.ann.build_ns", || h.trace(&d));
    assert_eq!(builds, 1, "trace builds the forest once for both passes");
    assert_eq!(trace.output, direct);
}

#[test]
fn the_exact_paths_build_no_forest() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let d = support(600, 64);
    for h in [Hammer::new().with_threads(1), Hammer::new().with_threads(2)] {
        let (builds, direct) = samples("core.ann.build_ns", || h.reconstruct(&d));
        assert_eq!(builds, 0);
        let (builds, trace) = samples("core.ann.build_ns", || h.trace(&d));
        assert_eq!(builds, 0);
        assert_eq!(trace.output, direct);
    }
}
