//! The `repro bench-sim` measurement harness: sweeps the Monte-Carlo
//! trajectory engine over register widths and emits the
//! `BENCH_sim.json` trajectory artifact.
//!
//! Every figure/table sweep of the reproduction runs thousands of
//! trajectory trials, so simulator throughput bounds every scenario we
//! can reproduce. This harness measures the engine at two thread counts
//! against the pre-subsystem baseline
//! ([`hammer_sim::TrajectoryEngine::sample_reference`]):
//!
//! 1. **checkpoint** — specialized gate kernels with prefix states
//!    shared/forked at fault sites, on one thread;
//! 2. **parallel** — the same path with the trial budget split across
//!    the engine's default worker threads.

use std::time::Instant;

use hammer_sim::{Circuit, DeviceModel, TrajectoryEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{Artifact, Cell};

/// RNG seed of every timed sampling run, the baseline included.
const SEED: u64 = 0x51B7;

/// The benchmark workload: a layered circuit in the shape of the
/// paper's benchmarks (Hadamard walls, CX ladders, parametric phase
/// layers), shallow enough that trials carry the ~1 fault typical of
/// the NISQ regime the paper evaluates.
fn bench_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..3 {
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..n {
            c.rz(q, 0.17 + 0.31 * (layer as f64) + 0.05 * q as f64);
        }
    }
    c
}

/// Runs the sweep. Quick mode covers 10 and 12 qubits with small trial
/// budgets (CI smoke); the full sweep covers {10, 13, 16} qubits —
/// the 16-qubit row is the issue's ≥ 4x checkpoint.
#[must_use]
pub fn run(quick: bool) -> Artifact {
    let sizes: &[(usize, u64)] = if quick {
        &[(10, 300), (12, 200)]
    } else {
        &[(10, 3000), (13, 1200), (16, 600)]
    };
    run_sizes(sizes, quick)
}

/// The measurement loop behind [`run`], parameterized so tests can
/// sweep tiny instances without paying for benchmark-scale timings.
fn run_sizes(sizes: &[(usize, u64)], quick: bool) -> Artifact {
    let threads = TrajectoryEngine::new(&DeviceModel::noiseless(1)).threads();
    let mut artifact = Artifact::new(
        "BENCH_sim",
        "TrajectoryEngine::sample trajectory: pre-subsystem baseline \
         (scalar kernels, full re-simulation per faulty trial) vs the fast path \
         (specialized gate kernels with prefix checkpointing), first on one thread, the \
         same thread count as the baseline, then with the trial budget split across \
         `threads` workers. Every timed cell is measured wall clock on the layered \
         benchmark circuit under the ibm_paris noise model.",
    );
    artifact
        .field("device", "ibm_paris")
        .field("threads", threads)
        .field("quick", quick);

    let mut speedup_at_16q = None;
    for &(n, trials) in sizes {
        let circuit = bench_circuit(n);
        let device = DeviceModel::ibm_paris(n);
        let engine = TrajectoryEngine::new(&device);

        let time_sample = |engine: TrajectoryEngine<'_>| {
            let start = Instant::now();
            let counts = engine
                .sample(&circuit, trials, &mut StdRng::seed_from_u64(SEED))
                .expect("benchmark instance is simulable");
            assert_eq!(counts.total(), trials);
            start.elapsed().as_secs_f64()
        };

        // The pre-subsystem baseline: scalar kernels, full re-simulation
        // per faulty trial, per-moment idle draws, one thread.
        let start = Instant::now();
        let reference_counts = engine
            .sample_reference(&circuit, trials, &mut StdRng::seed_from_u64(SEED))
            .expect("benchmark instance is simulable");
        let secs_reference = start.elapsed().as_secs_f64();
        assert_eq!(reference_counts.total(), trials);

        let secs_checkpoint = time_sample(engine.clone().with_threads(1));
        let secs_parallel = time_sample(engine);
        let speedup_end_to_end = secs_reference / secs_parallel;
        if n == 16 {
            speedup_at_16q = Some(speedup_end_to_end);
        }

        artifact.row(vec![
            ("qubits", n.into()),
            ("gates", circuit.gate_count().into()),
            ("trials", trials.into()),
            ("secs_reference", Cell::Fixed(secs_reference, 6)),
            ("secs_checkpoint", Cell::Fixed(secs_checkpoint, 6)),
            ("secs_parallel", Cell::Fixed(secs_parallel, 6)),
            (
                "speedup_checkpoint",
                Cell::Fixed(secs_reference / secs_checkpoint, 3),
            ),
            ("speedup_end_to_end", Cell::Fixed(speedup_end_to_end, 3)),
            (
                "trials_per_sec",
                Cell::Fixed(trials as f64 / secs_parallel, 1),
            ),
        ]);
    }
    artifact.field(
        "speedup_end_to_end_at_16_qubits",
        Cell::opt(speedup_at_16q, 3),
    );
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_and_serializes() {
        // Benchmark-scale timings belong to the CI `bench-sim --quick`
        // step; the unit test sweeps tiny instances through the same
        // loop to guard the measurement + serialization paths.
        let artifact = run_sizes(&[(4, 40), (5, 30)], true);
        assert_eq!(artifact.row_count(), 2);
        for row in 0..2 {
            let secs = artifact.cell(row, "secs_reference").and_then(Cell::as_f64);
            assert!(secs.unwrap() > 0.0);
        }
        let json = artifact.to_json();
        assert!(json.contains("\"artifact\": \"BENCH_sim\""));
        assert!(json.contains("\"qubits\": 4"));
        // No 16-qubit row in the tiny sweep.
        assert!(json.contains("\"speedup_end_to_end_at_16_qubits\": null"));
        crate::report::assert_same_schema(&json, include_str!("../../../BENCH_sim.json"));
        let text = artifact.render();
        assert!(text.contains("BENCH_sim") && text.contains('4') && text.contains('5'));
    }

    #[test]
    fn bench_circuit_is_representative() {
        let c = bench_circuit(10);
        // Mixed gate set: butterflies, permutations and diagonals.
        assert!(c.cx_count() > 0);
        assert!(c.gate_count() > 3 * c.cx_count());
        assert_eq!(c.num_qubits(), 10);
    }
}
