//! Figure 8: HAMMER's headline result on Bernstein–Vazirani — PST and
//! IST improvements across the whole IBM suite.

use std::fmt::Write as _;

use hammer_core::Hammer;
use hammer_dist::{metrics, stats, BitString};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::datasets::{ibm_bv_suite, IbmBackend};
use crate::pipeline::run_bv;
use crate::report::{fnum, section, Table};

/// Fig. 8(a): one BV-10 circuit (key `1010101010`) before/after HAMMER.
#[must_use]
pub fn fig8a(quick: bool) -> String {
    let mut out = section(
        "fig8a",
        "BV-10 with key 1010101010: ideal / baseline / HAMMER",
        "baseline: key at ~8% masked by an incorrect outcome at ~20% \
         (IST 0.4); HAMMER boosts PST and pushes IST above 1",
    );
    let key = BitString::parse("1010101010").expect("valid key");
    let bench = hammer_circuits::BernsteinVazirani::new(key);
    let device = IbmBackend::Paris.device(bench.num_qubits());
    let trials = if quick { 8192 } else { 32768 };
    let mut rng = StdRng::seed_from_u64(0x01680A);
    let baseline = run_bv(&bench, &device, trials, &mut rng).expect("BV pipeline");
    let hammered = Hammer::new().reconstruct(&baseline);

    let mut table = Table::new(&["distribution", "P(key)", "P(top incorrect)", "PST", "IST"]);
    let top_incorrect = |d: &hammer_dist::Distribution| {
        d.top_k(4)
            .into_iter()
            .find(|&(x, _)| x != key)
            .map_or(0.0, |(_, p)| p)
    };
    table.row_owned(vec![
        "ideal".into(),
        "1.0000".into(),
        "0.0000".into(),
        "1.000".into(),
        "inf".into(),
    ]);
    for (name, d) in [("baseline", &baseline), ("HAMMER", &hammered)] {
        table.row_owned(vec![
            name.into(),
            fnum(d.prob(key), 4),
            fnum(top_incorrect(d), 4),
            fnum(metrics::pst(d, &[key]), 4),
            fnum(metrics::ist(d, &[key]), 3),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nPST improvement {}x, IST improvement {}x",
        fnum(
            metrics::pst(&hammered, &[key]) / metrics::pst(&baseline, &[key]),
            2
        ),
        fnum(
            metrics::ist(&hammered, &[key]) / metrics::ist(&baseline, &[key]),
            2
        ),
    );
    out
}

/// Fig. 8(b)'s raw numbers: one PST gain per circuit, one IST gain per
/// circuit whose IST is finite and positive before and after HAMMER,
/// and how many circuits lost PST.
#[derive(Debug, Clone, PartialEq)]
struct Fig8bGains {
    /// HAMMER-over-baseline PST ratio, one per (instance, backend).
    pst: Vec<f64>,
    /// HAMMER-over-baseline IST ratio over the circuits with finite IST.
    ist: Vec<f64>,
    /// Circuits whose PST dropped under HAMMER.
    regressions: usize,
}

/// The IBM backends the suite fans out over: Paris alone when `quick`.
fn backends(quick: bool) -> &'static [IbmBackend] {
    if quick {
        &[IbmBackend::Paris]
    } else {
        &IbmBackend::ALL
    }
}

/// Runs the BV suite on the IBM backends (Paris alone when `quick`) and
/// measures HAMMER's PST and IST gain on every circuit.
fn fig8b_gains(quick: bool) -> Fig8bGains {
    let suite = ibm_bv_suite(quick);
    let trials = if quick { 2048 } else { 8192 };
    let hammer = Hammer::new();
    let mut gains = Fig8bGains {
        pst: Vec::new(),
        ist: Vec::new(),
        regressions: 0,
    };
    for inst in &suite {
        for &backend in backends(quick) {
            let device = backend.device(inst.bench.num_qubits());
            let mut rng =
                StdRng::seed_from_u64(0x01680B ^ (inst.bench.key().as_u64() << 8) ^ backend as u64);
            let baseline = run_bv(&inst.bench, &device, trials, &mut rng).expect("BV pipeline");
            let after = hammer.reconstruct(&baseline);
            let key = [inst.bench.key()];
            let pst_gain = metrics::pst(&after, &key) / metrics::pst(&baseline, &key).max(1e-12);
            gains.pst.push(pst_gain);
            if pst_gain < 1.0 {
                gains.regressions += 1;
            }
            let ist_before = metrics::ist(&baseline, &key);
            let ist_after = metrics::ist(&after, &key);
            if ist_before.is_finite() && ist_after.is_finite() && ist_before > 0.0 {
                gains.ist.push(ist_after / ist_before);
            }
        }
    }
    gains
}

/// Fig. 8(b): relative PST/IST improvement for the full BV suite fanned
/// out over the three IBM backends.
#[must_use]
pub fn fig8b(quick: bool) -> String {
    let mut out = section(
        "fig8b",
        "Relative PST and IST improvement with HAMMER, 250+ BV circuits",
        "gmean PST 1.38x (up to 2x), gmean IST 1.74x (up to 5x); improvement \
         on essentially every circuit",
    );
    let Fig8bGains {
        pst: pst_gains,
        ist: ist_gains,
        regressions,
    } = fig8b_gains(quick);

    // The S-curve, decimated for readability.
    let mut sorted = pst_gains.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite gains"));
    let mut table = Table::new(&["percentile", "PST improvement"]);
    for pct in [0usize, 10, 25, 50, 75, 90, 100] {
        let idx = ((pct * (sorted.len() - 1)) as f64 / 100.0).round() as usize;
        table.row_owned(vec![format!("p{pct}"), fnum(sorted[idx], 3)]);
    }
    let _ = write!(out, "{table}");

    let _ = writeln!(
        out,
        "\ncircuits evaluated: {} ({} suite instances x {} backends)",
        pst_gains.len(),
        ibm_bv_suite(quick).len(),
        backends(quick).len()
    );
    let _ = writeln!(
        out,
        "gmean PST improvement: {}x (max {}x), regressions: {}",
        fnum(stats::geometric_mean(&pst_gains).expect("non-empty"), 3),
        fnum(sorted.last().copied().expect("non-empty"), 2),
        regressions,
    );
    if !ist_gains.is_empty() {
        let mut ist_sorted = ist_gains.clone();
        ist_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite gains"));
        let _ = writeln!(
            out,
            "gmean IST improvement: {}x (max {}x) over {} circuits with finite IST",
            fnum(stats::geometric_mean(&ist_gains).expect("non-empty"), 3),
            fnum(ist_sorted.last().copied().expect("non-empty"), 2),
            ist_gains.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use hammer_dist::stats::geometric_mean;

    #[test]
    fn fig8b_quick_meets_the_paper_gains() {
        let gains = super::fig8b_gains(true);
        let pst = geometric_mean(&gains.pst).expect("non-empty");
        let ist = geometric_mean(&gains.ist).expect("non-empty");
        // The paper's Fig. 8(b) headline: gmean PST 1.38x, IST 1.74x.
        assert!(pst >= 1.38, "gmean PST gain {pst}");
        assert!(ist >= 1.74, "gmean IST gain {ist}");
        assert_eq!(gains.regressions, 0, "PST regressions");
    }
}
