//! # hammer — a reproduction of HAMMER (ASPLOS '22)
//!
//! This facade crate re-exports the public API of the HAMMER reproduction
//! workspace. The workspace implements, from scratch:
//!
//! * [`dist`] — bitstrings, trial-count histograms, probability
//!   distributions, Hamming spectra and the paper's figures of merit
//!   (PST, IST, EHD, TVD, …).
//! * [`sim`] — a state-vector quantum-circuit simulator with stochastic
//!   Pauli noise, readout error, device presets, a SWAP-routing transpiler
//!   and entanglement-entropy analysis. This is the stand-in for the IBM
//!   and Google hardware used in the paper.
//! * [`graphs`] — MaxCut problem instances (Erdős–Rényi, d-regular, grid,
//!   ring, Sherrington–Kirkpatrick).
//! * [`circuits`] — the paper's benchmark circuits: Bernstein–Vazirani,
//!   GHZ, QAOA-Maxcut and the random-identity circuits of Section 7.
//! * [`core`] — **Hamming Reconstruction** itself (Algorithm 1), with
//!   configurable variants for ablation studies.
//! * [`qaoa`] — the variational QAOA workflow (expectation, landscape
//!   scans, Nelder–Mead optimization) with pluggable post-processing.
//! * [`serve`] — the production-style serving subsystem: a TCP service
//!   with a binary wire protocol, request batching/coalescing and a
//!   distribution cache over reconstruct/metrics/sample pipelines.
//!
//! # Quickstart
//!
//! ```
//! use hammer::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // A 6-bit Bernstein–Vazirani benchmark with secret key 101101
//! // (6 data qubits + 1 ancilla).
//! let bench = BernsteinVazirani::new(BitString::parse("101101")?);
//! let circuit = bench.circuit();
//!
//! // Execute on a noisy simulated device for 8192 trials.
//! let device = DeviceModel::ibm_paris(circuit.num_qubits());
//! let counts = AutoEngine::new(&device).sample(&circuit, 8192, &mut rng)?;
//! let noisy = bench.data_counts(&counts).to_distribution();
//!
//! // Post-process with HAMMER.
//! let recovered = Hammer::new().reconstruct(&noisy);
//!
//! // The probability of the correct answer goes up.
//! let before = pst(&noisy, &[bench.key()]);
//! let after = pst(&recovered, &[bench.key()]);
//! assert!(after >= before);
//! # Ok(())
//! # }
//! ```

pub use hammer_circuits as circuits;
pub use hammer_core as core;
pub use hammer_dist as dist;
pub use hammer_graphs as graphs;
pub use hammer_qaoa as qaoa;
pub use hammer_serve as serve;
pub use hammer_sim as sim;

/// Convenience re-exports covering the most common entry points.
pub mod prelude {
    pub use hammer_circuits::{
        bernstein_vazirani, ghz, ghz_correct_outcomes, qaoa_maxcut, BernsteinVazirani, QaoaLayer,
        RandomIdentityBuilder,
    };
    pub use hammer_core::{Hammer, HammerConfig};
    pub use hammer_dist::{
        metrics::{cost_ratio, ehd, hellinger_fidelity, ist, pst, tvd},
        BitString, Counts, Distribution, HammingSpectrum,
    };
    pub use hammer_graphs::{generators, Graph, MaxCut};
    pub use hammer_qaoa::{PostProcess, QaoaOutcome, QaoaParams, QaoaRunner};
    pub use hammer_serve::{serve, DeviceSpec, SampleJob, ServeClient, ServeConfig};
    pub use hammer_sim::{
        AutoEngine, Circuit, DeviceModel, Gate, NoiseModel, PropagationEngine, StabilizerEngine,
        StateVector, TrajectoryEngine,
    };
}
