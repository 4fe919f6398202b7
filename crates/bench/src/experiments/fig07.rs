//! Figure 7: the step-by-step anatomy of one HAMMER run on BV-10.

use std::fmt::Write as _;

use hammer_circuits::BernsteinVazirani;
use hammer_core::Hammer;
use hammer_dist::{metrics, BitString};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::datasets::IbmBackend;
use crate::pipeline::run_bv;
use crate::report::{fnum, section, Table};

/// Fig. 7(a–e): probabilities, CHS, weights, per-bin scores and
/// cumulative scores for the correct and top-incorrect outcomes of a
/// BV-10 run.
#[must_use]
pub fn fig7(quick: bool) -> String {
    let mut out = section(
        "fig7",
        "Anatomy of HAMMER on BV-10 (CHS, weights, scores)",
        "correct outcome's CHS peaks at low bins, average outcome's at n/2; \
         inverse-average weights + filtered scores close the probability gap \
         to the top incorrect outcome",
    );
    let key = BitString::ones(10);
    let bench = BernsteinVazirani::new(key);
    let device = IbmBackend::Manhattan.device(bench.num_qubits());
    let trials = if quick { 8192 } else { 32768 };
    let mut rng = StdRng::seed_from_u64(0x016700);
    let dist = run_bv(&bench, &device, trials, &mut rng).expect("BV-10 pipeline");

    let hammer = Hammer::new();
    let trace = hammer.trace(&dist);

    // (a) the probability gap.
    let top_incorrect = dist
        .top_k(8)
        .into_iter()
        .find(|&(x, _)| x != key)
        .expect("some incorrect outcome");
    let _ = writeln!(
        out,
        "(a) P(correct {key}) = {}, P(top incorrect {}) = {} -> gap {}x",
        fnum(dist.prob(key), 4),
        top_incorrect.0,
        fnum(top_incorrect.1, 4),
        fnum(top_incorrect.1 / dist.prob(key).max(1e-12), 2),
    );

    // (b)-(d): CHS, weights and per-bin contributions.
    let b_correct = hammer.score_breakdown(&dist, key);
    let b_incorrect = hammer.score_breakdown(&dist, top_incorrect.0);
    let mut table = Table::new(&[
        "bin d",
        "CHS(correct)",
        "CHS(top incorrect)",
        "CHS(average)",
        "weight W[d]",
        "score term (correct)",
        "score term (incorrect)",
    ]);
    for d in 0..trace.max_distance {
        table.row_owned(vec![
            d.to_string(),
            fnum(b_correct.chs[d], 4),
            fnum(b_incorrect.chs[d], 4),
            fnum(trace.average_chs[d], 4),
            fnum(trace.weights[d], 3),
            fnum(b_correct.contributions[d], 4),
            fnum(b_incorrect.contributions[d], 4),
        ]);
    }
    let _ = write!(out, "{table}");

    // (e) cumulative scores and the final verdict.
    let _ = writeln!(
        out,
        "\n(e) cumulative score: correct = {}, top incorrect = {}",
        fnum(b_correct.score, 4),
        fnum(b_incorrect.score, 4),
    );
    let after = &trace.output;
    let _ = writeln!(
        out,
        "after HAMMER: P(correct) = {}, P(top incorrect) = {}",
        fnum(after.prob(key), 4),
        fnum(after.prob(top_incorrect.0), 4),
    );
    let _ = writeln!(
        out,
        "IST: {} -> {}",
        fnum(metrics::ist(&dist, &[key]), 3),
        fnum(metrics::ist(after, &[key]), 3),
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig7_quick_renders_and_closes_the_gap() {
        let r = super::fig7(true);
        assert!(r.contains("cumulative score"));
        assert!(r.contains("IST"));
    }
}
