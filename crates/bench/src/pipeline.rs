//! Shared execution pipelines: run a benchmark circuit on a simulated
//! device exactly the way the paper ran it on hardware (transpile →
//! execute trials → project to the logical register). Every pipeline
//! samples on [`AutoEngine`], the exact sampler: BV is Clifford, so it
//! runs on the tableau at any width.

use hammer_circuits::BernsteinVazirani;
use hammer_dist::Distribution;
use hammer_sim::{transpile, AutoEngine, Circuit, DeviceModel, SimError};
use rand::RngCore;

/// Runs a circuit on a device with SWAP routing and returns the
/// *logical* output distribution.
fn run_routed(
    circuit: &Circuit,
    device: &DeviceModel,
    trials: u64,
    rng: &mut dyn RngCore,
) -> Result<Distribution, SimError> {
    let routed = transpile(circuit, device.coupling())?;
    let physical = AutoEngine::new(device)
        .sample(routed.circuit(), trials, rng)?
        .to_distribution();
    Ok(routed.logical_distribution(&physical))
}

/// Runs a Bernstein–Vazirani benchmark end to end and returns the
/// *data-register* distribution (ancilla marginalized out) — the noisy
/// histogram the paper's Figs. 1(a), 3(b), 7 and 8 start from.
///
/// # Errors
///
/// Propagates [`SimError`] from routing or execution.
pub fn run_bv(
    bench: &BernsteinVazirani,
    device: &DeviceModel,
    trials: u64,
    rng: &mut dyn RngCore,
) -> Result<Distribution, SimError> {
    let logical = run_routed(&bench.circuit(), device, trials, rng)?;
    Ok(logical.marginal(&bench.data_qubits()))
}

/// Ensemble of Diverse Mappings (EDM, Tannu & Qureshi MICRO '19 — the
/// related-work baseline of §8): run the same circuit under `k`
/// different initial layouts, splitting the trial budget evenly, and
/// merge the logical histograms. Different mappings route through
/// different couplers, so mapping-specific correlated errors average
/// out while the correct answer reinforces.
///
/// # Errors
///
/// Propagates [`SimError`] from routing or execution.
///
/// # Panics
///
/// Panics if `k` is zero or `trials < k`.
pub fn run_bv_edm(
    bench: &BernsteinVazirani,
    device: &DeviceModel,
    trials: u64,
    k: usize,
    rng: &mut dyn RngCore,
) -> Result<Distribution, SimError> {
    assert!(k >= 1, "EDM needs at least one mapping");
    assert!(
        trials >= k as u64,
        "not enough trials to split across mappings"
    );
    let n_logical = bench.num_qubits();
    let n_physical = device.num_qubits();
    let per_mapping = trials / k as u64;
    // Equal trials per mapping → the ensemble distribution is the plain
    // average of the per-mapping distributions.
    let mut pairs: Vec<(hammer_dist::BitString, f64)> = Vec::new();
    for m in 0..k {
        // Rotate the logical register across the physical qubits.
        let layout: Vec<usize> = (0..n_logical).map(|q| (q + m) % n_physical).collect();
        let routed =
            hammer_sim::transpile_with_layout(&bench.circuit(), device.coupling(), &layout)?;
        let physical = AutoEngine::new(device)
            .sample(routed.circuit(), per_mapping, rng)?
            .to_distribution();
        let logical = routed
            .logical_distribution(&physical)
            .marginal(&bench.data_qubits());
        pairs.extend(logical.iter());
    }
    Ok(Distribution::from_probs(bench.num_data_qubits(), pairs)
        .expect("ensemble has probability mass"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_dist::{metrics, BitString};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bv_pipeline_recovers_key_under_light_noise() {
        let key = BitString::parse("10110").unwrap();
        let bench = BernsteinVazirani::new(key);
        let device = DeviceModel::ibm_casablanca(bench.num_qubits());
        let mut rng = StdRng::seed_from_u64(3);
        let dist = run_bv(&bench, &device, 4096, &mut rng).unwrap();
        assert_eq!(dist.n_bits(), 5);
        let pst = metrics::pst(&dist, &[key]);
        assert!(pst > 0.3, "pst = {pst}");
        // Errors cluster near the key.
        assert!(metrics::ehd(&dist, &[key]) < 2.0);
    }

    #[test]
    fn edm_merges_mappings_and_preserves_width() {
        let key = BitString::parse("1101").unwrap();
        let bench = BernsteinVazirani::new(key);
        let device = DeviceModel::ibm_paris(bench.num_qubits() + 2);
        let mut rng = StdRng::seed_from_u64(23);
        let dist = run_bv_edm(&bench, &device, 4096, 4, &mut rng).unwrap();
        assert_eq!(dist.n_bits(), 4);
        assert!((dist.total_mass() - 1.0).abs() < 1e-9);
        assert!(metrics::pst(&dist, &[key]) > 0.1);
    }

    #[test]
    fn noiseless_device_gives_pure_key() {
        let key = BitString::parse("110").unwrap();
        let bench = BernsteinVazirani::new(key);
        let device = DeviceModel::noiseless(bench.num_qubits());
        let mut rng = StdRng::seed_from_u64(7);
        let dist = run_bv(&bench, &device, 512, &mut rng).unwrap();
        assert!((dist.prob(key) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bv_runs_past_the_dense_cap() {
        // 31 qubits with the ancilla: beyond MAX_DENSE_QUBITS, so only
        // the tableau route can sample it.
        let key = BitString::parse("101100111000111100001111100000").unwrap();
        let bench = BernsteinVazirani::new(key);
        let device = DeviceModel::noiseless(bench.num_qubits());
        let mut rng = StdRng::seed_from_u64(30);
        let dist = run_bv(&bench, &device, 256, &mut rng).unwrap();
        assert_eq!(dist.n_bits(), 30);
        assert!((dist.prob(key) - 1.0).abs() < 1e-9);
    }
}
