//! Figure 11: does entanglement destroy the Hamming structure?
//! EHD vs entanglement entropy and vs fidelity for random-identity
//! circuits of two depth classes.

use std::fmt::Write as _;

use hammer_circuits::RandomIdentityBuilder;
use hammer_dist::{metrics, stats};
use hammer_sim::{entanglement_entropy, PropagationEngine, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datasets::IbmBackend;
use crate::report::{fnum, section, Table};

struct Sample {
    entropy: f64,
    ehd: f64,
    fidelity: f64,
    depth: usize,
}

fn run_class(
    label: &str,
    layer_range: (usize, usize),
    circuits: usize,
    trials: u64,
    out: &mut String,
) {
    let n = 10;
    let base = IbmBackend::Paris.device(n);
    let mut samples: Vec<Sample> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x016B ^ layer_range.0 as u64);
    for _ in 0..circuits {
        let layers = rng.gen_range(layer_range.0..=layer_range.1);
        let density = rng.gen_range(0.1..1.0);
        let bench = RandomIdentityBuilder::new(n)
            .layers(layers)
            .two_qubit_density(density)
            .build(&mut rng);
        let entropy =
            entanglement_entropy(&StateVector::from_circuit(bench.entangling_half()), n / 2);
        // Per-circuit calibration drift: the paper's data spans twenty
        // days of calibration cycles, so realized error rates vary
        // circuit to circuit. Without this, EHD would be a pure
        // function of gate count and the entropy correlation would be
        // artificially strong.
        let drift = rng.gen_range(0.4..2.5);
        let device = base.with_noise(hammer_sim::NoiseModel::uniform(
            n,
            base.noise().p1() * drift,
            base.noise().p2() * drift,
            hammer_sim::ReadoutError::new((0.018 * drift).min(0.5), (0.042 * drift).min(0.5)),
        ));
        let dist = PropagationEngine::new(&device)
            .sample(bench.circuit(), trials, &mut rng)
            .expect("random-identity pipeline")
            .to_distribution();
        let correct = [bench.correct_outcome()];
        samples.push(Sample {
            entropy,
            ehd: metrics::ehd(&dist, &correct),
            fidelity: metrics::pst(&dist, &correct),
            depth: bench.circuit().depth(),
        });
    }

    let entropies: Vec<f64> = samples.iter().map(|s| s.entropy).collect();
    let ehds: Vec<f64> = samples.iter().map(|s| s.ehd).collect();
    let fidelities: Vec<f64> = samples.iter().map(|s| s.fidelity).collect();
    let depths: Vec<f64> = samples.iter().map(|s| s.depth as f64).collect();

    let _ = writeln!(
        out,
        "\n[{label}] {} circuits, depth {}-{}, n = {n}",
        samples.len(),
        samples.iter().map(|s| s.depth).min().expect("non-empty"),
        samples.iter().map(|s| s.depth).max().expect("non-empty"),
    );
    let mut table = Table::new(&["pair", "spearman"]);
    let rho =
        |xs: &[f64], ys: &[f64]| stats::spearman(xs, ys).map_or("n/a".to_string(), |r| fnum(r, 3));
    table.row_owned(vec!["entropy vs EHD".into(), rho(&entropies, &ehds)]);
    table.row_owned(vec!["fidelity vs EHD".into(), rho(&fidelities, &ehds)]);
    table.row_owned(vec!["depth vs EHD".into(), rho(&depths, &ehds)]);
    let _ = write!(out, "{table}");

    // Binned view: EHD across entropy terciles.
    let mut by_entropy: Vec<&Sample> = samples.iter().collect();
    by_entropy.sort_by(|a, b| a.entropy.partial_cmp(&b.entropy).expect("finite"));
    let tercile = by_entropy.len() / 3;
    let mut table = Table::new(&[
        "entropy tercile",
        "mean entropy",
        "mean EHD",
        "mean fidelity",
    ]);
    for (name, chunk) in [
        ("low", &by_entropy[..tercile]),
        ("mid", &by_entropy[tercile..2 * tercile]),
        ("high", &by_entropy[2 * tercile..]),
    ] {
        let m =
            |f: fn(&Sample) -> f64| chunk.iter().map(|s| f(s)).sum::<f64>() / chunk.len() as f64;
        table.row_owned(vec![
            name.into(),
            fnum(m(|s| s.entropy), 3),
            fnum(m(|s| s.ehd), 3),
            fnum(m(|s| s.fidelity), 3),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "max EHD observed: {} (uniform-error model: {})",
        fnum(ehds.iter().copied().fold(f64::NEG_INFINITY, f64::max), 3),
        fnum(metrics::uniform_ehd(n), 1),
    );
}

/// Fig. 11(a–d): EHD vs entanglement entropy (weak correlation) and vs
/// fidelity (strong correlation) for high- and low-depth circuits.
#[must_use]
pub fn fig11(quick: bool) -> String {
    let mut out = section(
        "fig11",
        "EHD vs entanglement entropy and fidelity (random-identity circuits)",
        "entropy vs EHD correlates weakly (Spearman ~0.2, weaker for shallow \
         circuits); fidelity vs EHD correlates strongly and negatively; EHD \
         stays below the uniform n/2 line",
    );
    let (circuits, trials) = if quick { (24, 2048) } else { (150, 8192) };
    run_class("high depth", (5, 9), circuits, trials, &mut out);
    run_class("low depth", (1, 4), circuits, trials, &mut out);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig11_quick_renders() {
        let r = super::fig11(true);
        assert!(r.contains("entropy vs EHD"));
        assert!(r.contains("high depth"));
        assert!(r.contains("low depth"));
    }
}
