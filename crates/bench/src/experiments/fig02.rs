//! Figure 2: background illustrations — (b) ideal vs noisy BV-3 output,
//! (d) ideal vs noisy QAOA-9 expectation.

use std::fmt::Write as _;

use hammer_circuits::BernsteinVazirani;
use hammer_dist::{metrics, BitString};
use hammer_qaoa::QaoaRunner;
use hammer_sim::DeviceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::angles;
use crate::datasets::{GraphFamily, IbmBackend, QaoaInstance};
use crate::pipeline::run_bv;
use crate::report::{bar, fnum, section, Table};

/// Fig. 2(b): ideal vs noisy output of the BV-3 circuit with key `111`.
#[must_use]
pub fn fig2b(quick: bool) -> String {
    let mut out = section(
        "fig2b",
        "Ideal vs noisy output of a 3-qubit Bernstein-Vazirani circuit",
        "ideal machine returns '111' with probability 1; hardware errors \
         produce '011', '101' and other nearby outcomes",
    );
    let key = BitString::ones(3);
    let bench = BernsteinVazirani::new(key);
    let device = DeviceModel::ibm_manhattan(bench.num_qubits());
    let trials = if quick { 2048 } else { 8192 };
    let mut rng = StdRng::seed_from_u64(0x01620B);
    let noisy = run_bv(&bench, &device, trials, &mut rng).expect("BV-3 pipeline");

    let mut table = Table::new(&["outcome", "ideal", "noisy", "histogram"]);
    for bits in 0..8u64 {
        let x = BitString::new(bits, 3);
        let ideal = if x == key { 1.0 } else { 0.0 };
        let p = noisy.prob(x);
        table.row_owned(vec![
            x.to_string(),
            fnum(ideal, 2),
            fnum(p, 4),
            bar(p, 1.0, 30),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\nnoisy PST = {}; every incorrect outcome with visible mass sits 1-2 \
         flips from the key",
        fnum(metrics::pst(&noisy, &[key]), 3)
    );
    out
}

/// Fig. 2(d): ideal vs noisy expected cost of a QAOA-9 instance.
#[must_use]
pub fn fig2d(quick: bool) -> String {
    let mut out = section(
        "fig2d",
        "Ideal vs noisy QAOA-9 output (expected cost collapse)",
        "ideal E(x) = 3.75 vs noisy E(x) = -0.42 on IBM-Paris: suboptimal \
         outcomes drag the expectation toward zero",
    );
    let n = 9;
    let inst = QaoaInstance::with_seed(GraphFamily::ErdosRenyi(0.4), n, 2, 1);
    let problem = hammer_graphs::MaxCut::new(inst.graph.clone());
    let runner = QaoaRunner::new(problem, IbmBackend::Paris.device(n)).trials(if quick {
        2048
    } else {
        8192
    });
    let params = angles::tuned(GraphFamily::ErdosRenyi(0.4), 2);

    let ideal = runner.ideal(&params);
    let mut rng = StdRng::seed_from_u64(0x01620D);
    let noisy = runner.run(&params, &mut rng).expect("QAOA pipeline");

    let mut table = Table::new(&["execution", "E[C]", "CR = E[C]/C_min", "optimal mass"]);
    table.row_owned(vec![
        "ideal".into(),
        fnum(ideal.c_exp, 3),
        fnum(ideal.cost_ratio, 3),
        fnum(ideal.optimal_mass, 3),
    ]);
    table.row_owned(vec![
        "noisy".into(),
        fnum(noisy.c_exp, 3),
        fnum(noisy.cost_ratio, 3),
        fnum(noisy.optimal_mass, 3),
    ]);
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\n|C_min| = {}; noise destroys {}% of the achievable expectation",
        fnum(runner.c_min().abs(), 1),
        fnum(
            100.0 * (1.0 - noisy.cost_ratio / ideal.cost_ratio.max(1e-9)),
            1
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2b_quick_renders() {
        let r = fig2b(true);
        assert!(r.contains("111"));
        assert!(r.contains("noisy PST"));
    }
}
