//! Figure 3: Hamming spectra — (a) the bucketing idea, (b) BV-8,
//! (c) QAOA-8 with multiple correct outcomes.

use std::fmt::Write as _;

use hammer_circuits::BernsteinVazirani;
use hammer_dist::{BitString, Distribution, HammingSpectrum};
use hammer_graphs::MaxCut;
use hammer_qaoa::QaoaRunner;
use hammer_sim::DeviceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::angles;
use crate::datasets::{GraphFamily, IbmBackend, QaoaInstance};
use crate::pipeline::run_bv;
use crate::report::{fnum, section, Table};

/// Renders a spectrum as the per-bin table the figure plots.
fn spectrum_table(spectrum: &HammingSpectrum) -> Table {
    let mut table = Table::new(&[
        "hamming bin",
        "outcomes",
        "total prob",
        "bin mean",
        "bin max",
        "uniform 1/2^n",
    ]);
    for (k, bin) in spectrum.bins().iter().enumerate() {
        if bin.count == 0 && k > 0 {
            continue;
        }
        table.row_owned(vec![
            k.to_string(),
            bin.count.to_string(),
            fnum(bin.total, 4),
            fnum(bin.mean(), 6),
            fnum(bin.max, 4),
            fnum(spectrum.uniform_outcome_probability(), 6),
        ]);
    }
    table
}

/// Fig. 3(a): the illustrative 2-qubit spectrum bucketing.
#[must_use]
pub fn fig3a() -> String {
    let mut out = section(
        "fig3a",
        "From output distribution to Hamming spectrum (2-qubit example)",
        "outcomes bucket into bins by Hamming distance from the correct answer",
    );
    let correct = BitString::parse("11").expect("valid");
    let dist = Distribution::from_probs(
        2,
        [
            (BitString::parse("11").expect("valid"), 0.60),
            (BitString::parse("01").expect("valid"), 0.20),
            (BitString::parse("10").expect("valid"), 0.12),
            (BitString::parse("00").expect("valid"), 0.08),
        ],
    )
    .expect("valid distribution");
    let mut table = Table::new(&["outcome", "probability", "bin (hd to 11)"]);
    for (x, p) in dist.iter() {
        table.row_owned(vec![
            x.to_string(),
            fnum(p, 2),
            x.hamming_distance(correct).to_string(),
        ]);
    }
    let _ = writeln!(out, "{table}");
    let spectrum = HammingSpectrum::new(&dist, &[correct]);
    let _ = write!(out, "{}", spectrum_table(&spectrum));
    out
}

/// Fig. 3(b): Hamming spectrum of a BV-8 output on IBM-Manhattan.
#[must_use]
pub fn fig3b(quick: bool) -> String {
    let mut out = section(
        "fig3b",
        "Hamming spectrum of BV-8 (key 11111111, IBM-Manhattan-like)",
        "high-probability incorrect outcomes concentrate in low bins; beyond \
         bin ~4 outcomes fall below the uniform 1/2^n chance line",
    );
    let key = BitString::ones(8);
    let bench = BernsteinVazirani::new(key);
    let device = DeviceModel::ibm_manhattan(bench.num_qubits());
    let trials = if quick { 4096 } else { 16384 };
    let mut rng = StdRng::seed_from_u64(0x01630B);
    let dist = run_bv(&bench, &device, trials, &mut rng).expect("BV-8 pipeline");

    let spectrum = HammingSpectrum::new(&dist, &[key]);
    let _ = write!(out, "{}", spectrum_table(&spectrum));

    // Highlight the two marked outcomes of the figure.
    let (top, p_top) = dist.most_probable().expect("non-empty");
    let _ = writeln!(
        out,
        "\ncorrect key: p = {} (bin 0); most frequent outcome: {} with p = {} (bin {})",
        fnum(dist.prob(key), 4),
        top,
        fnum(p_top, 4),
        top.hamming_distance(key),
    );
    out
}

/// Fig. 3(c): Hamming spectrum of a QAOA-8 output with multiple correct
/// outcomes (shortest-distance binning).
#[must_use]
pub fn fig3c(quick: bool) -> String {
    let mut out = section(
        "fig3c",
        "Hamming spectrum of QAOA-8 (multiple correct outcomes)",
        "most incorrect outcomes within ~3 bins of the nearest correct answer",
    );
    // Pick a 3-regular instance with at least 3 optimal cuts, as in the
    // paper's example.
    let inst = (0..50)
        .map(|s| QaoaInstance::with_seed(GraphFamily::ThreeRegular, 8, 2, s))
        .find(|i| MaxCut::new(i.graph.clone()).brute_force().optimal.len() >= 3)
        .expect("an 8-node 3-regular instance with >= 3 optima exists");
    let problem = MaxCut::new(inst.graph.clone());
    let runner = QaoaRunner::new(problem, IbmBackend::Manhattan.device(8)).trials(if quick {
        4096
    } else {
        16384
    });
    let params = angles::tuned(GraphFamily::ThreeRegular, 2);
    let mut rng = StdRng::seed_from_u64(0x01630C);
    let outcome = runner.run(&params, &mut rng).expect("QAOA pipeline");

    let correct = runner.optimal_cuts();
    let _ = writeln!(
        out,
        "instance {} with {} optimal cuts",
        inst.id,
        correct.len()
    );
    let spectrum = HammingSpectrum::new(&outcome.distribution, correct);
    let _ = write!(out, "{}", spectrum_table(&spectrum));

    let within3: f64 = spectrum.bins().iter().take(4).map(|b| b.total).sum();
    let _ = writeln!(
        out,
        "\nprobability mass within 3 bins of a correct answer: {}",
        fnum(within3, 3)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_is_deterministic() {
        assert_eq!(fig3a(), fig3a());
    }

    #[test]
    fn fig3b_quick_renders() {
        let r = fig3b(true);
        assert!(r.contains("hamming bin"));
        assert!(r.contains("correct key"));
    }
}
