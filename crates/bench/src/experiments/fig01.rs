//! Figure 1: the motivating observations — (a) a noisy BV histogram,
//! (b) EHD growth far below the uniform-error model, (c) the flattened
//! variational cost landscape.

use std::fmt::Write as _;

use hammer_circuits::BernsteinVazirani;
use hammer_dist::{metrics, BitString};
use hammer_qaoa::{Landscape, PostProcess, QaoaRunner};
use hammer_sim::DeviceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::angles;
use crate::datasets::{GraphFamily, IbmBackend, QaoaInstance};
use crate::pipeline::run_bv;
use crate::report::{bar, fnum, section, Table};

/// Fig. 1(a): output histogram of a 4-qubit BV circuit.
#[must_use]
pub fn fig1a(quick: bool) -> String {
    let mut out = section(
        "fig1a",
        "Output histogram of a 4-qubit Bernstein-Vazirani circuit",
        "error-free output '1111' far from certain; most frequent incorrect \
         outcomes are close to it in Hamming space",
    );
    let key = BitString::ones(4);
    let bench = BernsteinVazirani::new(key);
    let device = DeviceModel::ibm_manhattan(bench.num_qubits());
    let trials = if quick { 2048 } else { 8192 };
    let mut rng = StdRng::seed_from_u64(0x01610A);
    let dist = run_bv(&bench, &device, trials, &mut rng).expect("BV-4 pipeline");

    let mut table = Table::new(&["outcome", "hd(key)", "probability", "histogram"]);
    let mut rows: Vec<(BitString, f64)> = dist.iter().collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probs"));
    let p_max = rows.first().map_or(1.0, |r| r.1);
    for (x, p) in rows.iter().take(12) {
        table.row_owned(vec![
            format!("{x}{}", if *x == key { " <= correct" } else { "" }),
            x.hamming_distance(key).to_string(),
            fnum(*p, 4),
            bar(*p, p_max, 30),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nPST(correct) = {}, EHD = {} (uniform-error model: {})",
        fnum(metrics::pst(&dist, &[key]), 3),
        fnum(metrics::ehd(&dist, &[key]), 3),
        fnum(metrics::uniform_ehd(4), 1),
    );
    out
}

/// Fig. 1(b): EHD of QAOA (p = 2) output vs circuit width, against the
/// uniform-error `n/2` line.
#[must_use]
pub fn fig1b(quick: bool) -> String {
    let mut out = section(
        "fig1b",
        "Expected Hamming Distance vs qubits, QAOA p=2 (IBM-Paris-like)",
        "EHD grows with n but much slower than the uniform-error n/2 line",
    );
    let sizes: Vec<usize> = if quick {
        vec![6, 8, 10, 12]
    } else {
        (6..=20).step_by(2).collect()
    };
    let trials = if quick { 2048 } else { 8192 };
    let params = angles::tuned(GraphFamily::ThreeRegular, 2);

    let mut table = Table::new(&["n", "ehd", "uniform n/2", "ratio"]);
    for &n in &sizes {
        let inst = QaoaInstance::with_seed(GraphFamily::ThreeRegular, n, 2, 0);
        let runner = QaoaRunner::new(
            hammer_graphs::MaxCut::new(inst.graph.clone()),
            IbmBackend::Paris.device(n),
        )
        .trials(trials);
        let mut rng = StdRng::seed_from_u64(0x01610B ^ n as u64);
        let outcome = runner
            .run_with(&params, &PostProcess::Baseline, &mut rng)
            .expect("QAOA pipeline");
        let e = metrics::ehd(&outcome.distribution, runner.optimal_cuts());
        table.row_owned(vec![
            n.to_string(),
            fnum(e, 3),
            fnum(metrics::uniform_ehd(n), 1),
            fnum(e / metrics::uniform_ehd(n), 3),
        ]);
    }
    let _ = write!(out, "{table}");
    out.push_str("\nEHD stays well below n/2 at every size: errors are structured.\n");
    out
}

/// Fig. 1(c): the (β, γ) cost landscape of a variational circuit,
/// flattened by noise.
#[must_use]
pub fn fig1c(quick: bool) -> String {
    let mut out = section(
        "fig1c",
        "Cost landscape of a variational circuit (noisy vs ideal)",
        "noise compresses the landscape's dynamic range, flattening gradients",
    );
    let n = if quick { 6 } else { 8 };
    let res = if quick { 6 } else { 10 };
    let inst = QaoaInstance::with_seed(GraphFamily::ThreeRegular, n, 1, 0);
    let problem = hammer_graphs::MaxCut::new(inst.graph.clone());
    let c_min = problem.brute_force().c_min;
    let runner = QaoaRunner::new(problem.clone(), IbmBackend::Paris.device(n)).trials(2048);

    // Offset range: a lattice of exact multiples of pi/4 would sit on
    // the analytic zeros of the p=1 expectation for regular graphs.
    let lo = 0.07;
    let hi = std::f64::consts::PI - 0.03;
    let ideal = Landscape::scan((lo, hi), (lo, hi), (res, res), |g, b| {
        runner
            .ideal(&hammer_qaoa::QaoaParams::constant(1, g, b))
            .cost_ratio
    });
    let mut rng = StdRng::seed_from_u64(0x01610C);
    let noisy = Landscape::scan((lo, hi), (lo, hi), (res, res), |g, b| {
        runner
            .run(&hammer_qaoa::QaoaParams::constant(1, g, b), &mut rng)
            .expect("QAOA pipeline")
            .cost_ratio
    });

    let (ilo, ihi) = ideal.range();
    let (nlo, nhi) = noisy.range();
    let _ = writeln!(
        out,
        "instance: 3-regular n={n}, p=1, C_min = {c_min}; grid {res}x{res} over (gamma, beta)"
    );
    let mut table = Table::new(&[
        "landscape",
        "CR min",
        "CR max",
        "dynamic range",
        "mean |grad|",
    ]);
    table.row_owned(vec![
        "ideal".into(),
        fnum(ilo, 3),
        fnum(ihi, 3),
        fnum(ihi - ilo, 3),
        fnum(ideal.mean_gradient_magnitude(), 3),
    ]);
    table.row_owned(vec![
        "noisy".into(),
        fnum(nlo, 3),
        fnum(nhi, 3),
        fnum(nhi - nlo, 3),
        fnum(noisy.mean_gradient_magnitude(), 3),
    ]);
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nnoise compresses the dynamic range by {}x",
        fnum((ihi - ilo) / (nhi - nlo).max(1e-9), 2)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_reports_structure() {
        let r = fig1a(true);
        assert!(r.contains("correct"));
        assert!(r.contains("PST"));
    }

    #[test]
    fn fig1c_quick_renders() {
        let r = fig1c(true);
        assert!(r.contains("dynamic range"));
    }
}
