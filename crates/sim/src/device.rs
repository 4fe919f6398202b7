//! Device models: coupling map + noise model presets standing in for the
//! machines of the paper's evaluation (three IBM Falcons and Google
//! Sycamore).
//!
//! The preset rates are synthetic. Published *average gate* errors for
//! these machines are 1q ≈ 0.05–0.1 %, 2q ≈ 1–2 % (IBM) / ≈ 0.6 %
//! (Sycamore) with 1–5 % biased readout; our presets sit ~2× above those
//! figures because gate-depolarizing + readout flips are the only error
//! channels we model — real devices additionally lose fidelity to
//! decoherence, crosstalk and drift, and the inflated rates land the
//! simulated program fidelities in the regime the paper reports (e.g.
//! BV-10 PST well under 50 %). The three IBM presets share a
//! Quantum-Volume-32-class topology but differ in error magnitudes,
//! mirroring "very different error characteristics" (§5.2).

use crate::coupling::CouplingMap;
use crate::noise::{NoiseModel, ReadoutError};

/// A simulated quantum device: name, connectivity and noise.
///
/// # Example
///
/// ```
/// use hammer_sim::DeviceModel;
///
/// let device = DeviceModel::ibm_paris(10);
/// assert_eq!(device.num_qubits(), 10);
/// assert!(device.noise().p2() > device.noise().p1());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    name: String,
    coupling: CouplingMap,
    noise: NoiseModel,
}

impl DeviceModel {
    /// Assembles a device from parts.
    ///
    /// # Panics
    ///
    /// Panics if the noise model and coupling map disagree on the qubit
    /// count.
    #[must_use]
    pub fn new(name: impl Into<String>, coupling: CouplingMap, noise: NoiseModel) -> Self {
        assert_eq!(
            coupling.num_qubits(),
            noise.num_qubits(),
            "coupling map and noise model widths differ"
        );
        Self {
            name: name.into(),
            coupling,
            noise,
        }
    }

    /// An ideal device: all-to-all coupling, zero noise.
    #[must_use]
    pub fn noiseless(n: usize) -> Self {
        Self::new("noiseless", CouplingMap::full(n), NoiseModel::noiseless(n))
    }

    /// An `n`-qubit slice of an IBM-Paris-like Falcon: heavy-hex
    /// topology, moderate gate errors, biased readout.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 27 (the Falcon lattice size).
    #[must_use]
    pub fn ibm_paris(n: usize) -> Self {
        let coupling = CouplingMap::heavy_hex_falcon().bfs_prefix(n);
        let noise = NoiseModel::with_variation(
            n,
            0.0012,
            0.022,
            ReadoutError::new(0.018, 0.042),
            0.4,
            PARIS_SEED,
        );
        Self::new("ibm-paris", coupling, noise)
    }

    /// An `n`-qubit slice of an IBM-Manhattan-like device: same lattice
    /// family, noisier two-qubit gates and readout.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 27.
    #[must_use]
    pub fn ibm_manhattan(n: usize) -> Self {
        let coupling = CouplingMap::heavy_hex_falcon().bfs_prefix(n);
        let noise = NoiseModel::with_variation(
            n,
            0.0018,
            0.030,
            ReadoutError::new(0.025, 0.055),
            0.4,
            MANHATTAN_SEED,
        );
        Self::new("ibm-manhattan", coupling, noise)
    }

    /// An `n`-qubit slice of an IBM-Casablanca-like device: the
    /// cleanest of the three IBM presets.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 27.
    #[must_use]
    pub fn ibm_casablanca(n: usize) -> Self {
        let coupling = CouplingMap::heavy_hex_falcon().bfs_prefix(n);
        let noise = NoiseModel::with_variation(
            n,
            0.0010,
            0.018,
            ReadoutError::new(0.014, 0.034),
            0.4,
            CASABLANCA_SEED,
        );
        Self::new("ibm-casablanca", coupling, noise)
    }

    /// An `n`-qubit slice of a Google-Sycamore-like device: 2-D grid
    /// topology (QAOA grid instances route SWAP-free), low two-qubit
    /// error, strongly biased readout.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn google_sycamore(n: usize) -> Self {
        // Smallest near-square grid covering n qubits, then a connected
        // n-qubit slice of it.
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let coupling = CouplingMap::grid(rows, cols).bfs_prefix(n);
        let noise = NoiseModel::with_variation(
            n,
            0.0020,
            0.011,
            ReadoutError::new(0.012, 0.055),
            0.4,
            SYCAMORE_SEED,
        );
        Self::new("google-sycamore", coupling, noise)
    }

    /// The paper's three IBM evaluation machines at width `n`
    /// (§5.2 uses Paris, Manhattan and Casablanca-class backends).
    #[must_use]
    pub fn ibm_fleet(n: usize) -> Vec<Self> {
        vec![
            Self::ibm_paris(n),
            Self::ibm_manhattan(n),
            Self::ibm_casablanca(n),
        ]
    }

    /// Device name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.coupling.num_qubits()
    }

    /// The device connectivity.
    #[must_use]
    pub fn coupling(&self) -> &CouplingMap {
        &self.coupling
    }

    /// The device noise model.
    #[must_use]
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Returns a copy with the noise replaced (useful for sweeps over
    /// error rates).
    ///
    /// # Panics
    ///
    /// Panics if the new model's width differs.
    #[must_use]
    pub fn with_noise(&self, noise: NoiseModel) -> Self {
        Self::new(self.name.clone(), self.coupling.clone(), noise)
    }
}

// Distinct deterministic seeds for the per-qubit variation of each preset.
const PARIS_SEED: u64 = 0x5041_5249_5300_0001;
const MANHATTAN_SEED: u64 = 0x4d41_4e48_4154_0002;
const CASABLANCA_SEED: u64 = 0x4341_5341_0000_0003;
const SYCAMORE_SEED: u64 = 0x5359_4341_4d4f_0004;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_widths() {
        for n in [2usize, 5, 10, 20, 27] {
            assert_eq!(DeviceModel::ibm_paris(n).num_qubits(), n);
        }
        assert_eq!(DeviceModel::google_sycamore(12).num_qubits(), 12);
        assert_eq!(DeviceModel::noiseless(6).num_qubits(), 6);
    }

    #[test]
    fn presets_are_connected() {
        for n in [3usize, 9, 16, 25] {
            assert!(DeviceModel::ibm_manhattan(n).coupling().is_connected());
            assert!(DeviceModel::google_sycamore(n).coupling().is_connected());
        }
    }

    #[test]
    fn fleet_has_three_distinct_devices() {
        let fleet = DeviceModel::ibm_fleet(8);
        assert_eq!(fleet.len(), 3);
        assert_ne!(fleet[0].noise(), fleet[1].noise());
        assert_ne!(fleet[1].noise(), fleet[2].noise());
    }

    #[test]
    fn error_ordering_matches_design() {
        // Manhattan is the noisiest preset, Casablanca the cleanest.
        let p = DeviceModel::ibm_paris(5);
        let m = DeviceModel::ibm_manhattan(5);
        let c = DeviceModel::ibm_casablanca(5);
        assert!(m.noise().p2() > p.noise().p2());
        assert!(p.noise().p2() > c.noise().p2());
    }

    #[test]
    fn noiseless_preset_is_noiseless() {
        assert!(DeviceModel::noiseless(4).noise().is_noiseless());
    }

    #[test]
    fn with_noise_swaps_model() {
        let d = DeviceModel::ibm_paris(4);
        let quiet = d.with_noise(NoiseModel::noiseless(4));
        assert!(quiet.noise().is_noiseless());
        assert_eq!(quiet.coupling(), d.coupling());
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_parts_rejected() {
        let _ = DeviceModel::new("bad", CouplingMap::linear(3), NoiseModel::noiseless(4));
    }
}
