//! The `repro bench-stab` measurement harness: noisy BV and GHZ
//! experiments at 64–128 qubits, run end-to-end on the stabilizer
//! engine — sampling through HAMMER reconstruction — emitting the
//! `BENCH_stab.json` artifact.
//!
//! These are the widths the paper's narrative targets ("machines with
//! hundreds of qubits") that the dense state-vector layer can never
//! reach: every row measures the tableau path at 2.5–5× the dense
//! engine's 24-qubit cap. Alongside wall-clock sampling throughput, the
//! rows record the figures of merit of the reproduced pipeline — PST
//! before and after reconstruction — so the artifact doubles as the
//! wide-register fidelity sweep.

use std::time::Instant;

use hammer_circuits::BernsteinVazirani;
use hammer_core::Hammer;
use hammer_dist::{metrics, BitString, Distribution};
use hammer_sim::{Circuit, DeviceModel, StabilizerEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{Artifact, Cell, Row};

const SEED: u64 = 0x57AB;

/// The deterministic wide BV key for a given data width: a mixed
/// pattern (not all-ones) so the oracle's CX fan-in is representative.
#[must_use]
pub fn wide_bv_key(data_bits: usize) -> BitString {
    let mut key = BitString::zeros(data_bits);
    for q in 0..data_bits {
        if q % 3 != 1 {
            key = key.flip_bit(q);
        }
    }
    key
}

/// One measured experiment: sample on the stabilizer engine, normalize,
/// reconstruct with HAMMER, and score PST against the correct set.
fn run_one(
    family: &'static str,
    circuit: &Circuit,
    device: &DeviceModel,
    correct: &[BitString],
    marginal: Option<&[usize]>,
    trials: u64,
) -> Row {
    let engine = StabilizerEngine::new(device);
    let mut rng = StdRng::seed_from_u64(SEED ^ circuit.num_qubits() as u64);

    let start = Instant::now();
    let counts = engine
        .sample(circuit, trials, &mut rng)
        .expect("wide Clifford instance is simulable");
    let secs_sample = start.elapsed().as_secs_f64();
    assert_eq!(counts.total(), trials);

    let counts = match marginal {
        Some(qubits) => counts.marginal(qubits),
        None => counts,
    };
    let noisy: Distribution = counts.to_distribution();
    let pst_before = metrics::pst(&noisy, correct);

    let start = Instant::now();
    let recovered = Hammer::new().reconstruct(&noisy);
    let secs_reconstruct = start.elapsed().as_secs_f64();
    let pst_after = metrics::pst(&recovered, correct);
    let pst_gain = if pst_before > 0.0 {
        pst_after / pst_before
    } else {
        1.0
    };

    vec![
        ("family", family.into()),
        ("qubits", circuit.num_qubits().into()),
        ("gates", circuit.gate_count().into()),
        ("trials", trials.into()),
        // The `N` of the `O(N²)` kernel.
        ("unique_outcomes", noisy.len().into()),
        ("secs_sample", Cell::Fixed(secs_sample, 6)),
        ("secs_reconstruct", Cell::Fixed(secs_reconstruct, 6)),
        (
            "trials_per_sec",
            Cell::Fixed(trials as f64 / secs_sample, 1),
        ),
        ("pst_before", Cell::Fixed(pst_before, 6)),
        ("pst_after", Cell::Fixed(pst_after, 6)),
        ("pst_gain", Cell::Fixed(pst_gain, 3)),
    ]
}

/// Runs the sweep. Quick mode covers the 64-qubit BV and GHZ rows with
/// a reduced trial budget (CI smoke); the full sweep spans 64–128
/// qubits for both families.
#[must_use]
pub fn run(quick: bool) -> Artifact {
    // BV widths are *data* widths (the circuit adds an ancilla);
    // GHZ widths are full register widths.
    if quick {
        sweep(&[64], &[64], 1024, quick)
    } else {
        sweep(&[64, 96, 127], &[64, 96, 128], 8192, quick)
    }
}

/// The measurement loop behind [`run`]: one row per (family, width),
/// BV first.
fn sweep(bv_widths: &[usize], ghz_widths: &[usize], trials: u64, quick: bool) -> Artifact {
    let mut artifact = Artifact::new(
        "BENCH_stab",
        "Noisy wide-register BV/GHZ experiments on the stabilizer \
         (Aaronson-Gottesman tableau) engine, end-to-end through HAMMER reconstruction. \
         Every cell is measured wall clock (not extrapolated) under the google_sycamore \
         noise preset; widths 64-128 sit far beyond the 24-qubit dense state-vector \
         cap.",
    );
    artifact
        .field("device", "google_sycamore")
        .field("engine", "stabilizer")
        .field(
            "threads",
            StabilizerEngine::new(&DeviceModel::noiseless(1)).threads(),
        )
        .field("quick", quick);
    for &w in bv_widths {
        let bench = BernsteinVazirani::new(wide_bv_key(w));
        let circuit = bench.circuit();
        let device = DeviceModel::google_sycamore(circuit.num_qubits());
        artifact.row(run_one(
            "bv",
            &circuit,
            &device,
            &[bench.key()],
            Some(&bench.data_qubits()),
            trials,
        ));
    }
    for &w in ghz_widths {
        let circuit = hammer_circuits::ghz(w);
        let device = DeviceModel::google_sycamore(w);
        let correct = hammer_circuits::ghz_correct_outcomes(w);
        artifact.row(run_one("ghz", &circuit, &device, &correct, None, trials));
    }
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_and_serializes() {
        // The CI `bench-stab --quick` step covers benchmark scale; the
        // unit test drives the same measurement loop on one small-ish
        // instance to guard the plumbing.
        let artifact = sweep(&[32], &[], 256, true);
        assert_eq!(artifact.row_count(), 1);
        let num = |key| artifact.cell(0, key).and_then(Cell::as_f64).unwrap();
        assert_eq!(num("qubits"), 33.0);
        assert!(num("secs_sample") > 0.0);
        assert!(num("pst_after") >= 0.0 && num("pst_after") <= 1.0 + 1e-9);
        let json = artifact.to_json();
        assert!(json.contains("\"artifact\": \"BENCH_stab\""));
        assert!(json.contains("\"family\": \"bv\""));
        assert!(json.contains("\"measured\": true"));
        crate::report::assert_same_schema(&json, include_str!("../../../BENCH_stab.json"));
        let text = artifact.render();
        assert!(text.contains("BENCH_stab") && text.contains("33"));
    }

    #[test]
    fn wide_bv_key_is_mixed_and_deterministic() {
        let a = wide_bv_key(64);
        let b = wide_bv_key(64);
        assert_eq!(a, b);
        assert!(a.weight() > 16 && a.weight() < 64, "weight {}", a.weight());
        assert_eq!(wide_bv_key(127).len(), 127);
    }
}
