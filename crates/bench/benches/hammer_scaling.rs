//! Table 3 / §6.6: HAMMER's O(N²) runtime scaling in the number of
//! unique outcomes, the weight-derivation kernel on its own, and the
//! blocked/branchless/work-stealing kernel sweep up to 256K unique
//! outcomes (the paper's largest — extrapolated — row, measured here).
//!
//! The 256K point makes a full sweep expensive; `cargo bench -- --test`
//! runs everything once in smoke mode (and shrinks the sweep), which is
//! what CI exercises. `repro bench-kernel` is the canonical artifact
//! emitter for the measured trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hammer_core::{kernel, FilterRule, Hammer, KernelTuning};
use hammer_dist::{BitString, Distribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic(unique: usize, n_bits: usize, seed: u64) -> Distribution {
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = if n_bits == 64 {
        u64::MAX
    } else {
        (1u64 << n_bits) - 1
    };
    let mut keys = std::collections::HashSet::with_capacity(unique);
    while keys.len() < unique {
        keys.insert(rng.gen::<u64>() & mask);
    }
    let pairs = keys
        .into_iter()
        .map(|k| (BitString::new(k, n_bits), rng.gen::<f64>() + 1e-6));
    Distribution::from_probs(n_bits, pairs).expect("valid distribution")
}

/// `Hammer`'s own default worker policy, reused for the kernel-level
/// calls so the sweep measures the thread count reconstruction uses.
fn worker_threads() -> usize {
    Hammer::new().threads()
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("hammer_reconstruct");
    for &unique in &[512usize, 2048, 8192] {
        let dist = synthetic(unique, 24, 7);
        group.throughput(Throughput::Elements((unique * unique) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(unique), &dist, |b, d| {
            let hammer = Hammer::new();
            b.iter(|| hammer.reconstruct(d));
        });
    }
    group.finish();
}

fn bench_width_independence(c: &mut Criterion) {
    // The paper's Table 3 point: the op count does not depend on the
    // qubit count (our distance kernel is one XOR + POPCNT either way).
    let mut group = c.benchmark_group("hammer_width_independence");
    for &n_bits in &[16usize, 32, 64] {
        let dist = synthetic(2048, n_bits, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n_bits), &dist, |b, d| {
            let hammer = Hammer::new();
            b.iter(|| hammer.reconstruct(d));
        });
    }
    group.finish();
}

fn bench_global_chs(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_chs");
    for &unique in &[512usize, 2048] {
        let dist = synthetic(unique, 24, 13);
        group.throughput(Throughput::Elements((unique * unique) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(unique), &dist, |b, d| {
            let tuning = KernelTuning::default();
            b.iter(|| kernel::global_chs_parallel(d.keys(), d.probs(), 12, 1, &tuning));
        });
    }
    group.finish();
}

/// The Table 3 sweep proper: N ∈ {4K, 16K, 64K, 256K} unique 64-bit
/// outcomes through the blocked/branchless/work-stealing kernel, with
/// the PR 1 scalar reference kernel timed alongside at the sizes where
/// it is affordable.
fn bench_kernel_scaling(c: &mut Criterion) {
    let smoke = c.smoke();
    let threads = worker_threads();
    let tuning = KernelTuning::default();
    let weights: Vec<f64> = (0..32).map(|d| 1.0 / (1.0 + d as f64)).collect();
    let filter = FilterRule::LowerProbabilityOnly;

    let sweep: &[usize] = if smoke {
        &[1 << 12, 1 << 14]
    } else {
        &[1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let reference_sweep: &[usize] = if smoke {
        &[1 << 12]
    } else {
        &[1 << 12, 1 << 14]
    };

    let mut group = c.benchmark_group("kernel_scaling");
    for &unique in sweep {
        let dist = synthetic(unique, 64, 21);
        group.throughput(Throughput::Elements((unique * unique) as u64));
        group.bench_with_input(BenchmarkId::new("blocked_ws", unique), &dist, |b, d| {
            b.iter(|| {
                kernel::scores_parallel(d.keys(), d.probs(), &weights, filter, threads, &tuning)
            });
        });
    }
    for &unique in reference_sweep {
        let dist = synthetic(unique, 64, 21);
        group.throughput(Throughput::Elements((unique * unique) as u64));
        group.bench_with_input(BenchmarkId::new("reference", unique), &dist, |b, d| {
            b.iter(|| kernel::reference::scores_parallel(d.as_slice(), &weights, filter, threads));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_reconstruct, bench_width_independence, bench_global_chs
}
criterion_group! {
    name = kernel_benches;
    // The 256K point costs minutes per sample; two samples keep the full
    // sweep honest without making `cargo bench` an hour-long run.
    config = Criterion::default().sample_size(2);
    targets = bench_kernel_scaling
}
criterion_main!(benches, kernel_benches);
