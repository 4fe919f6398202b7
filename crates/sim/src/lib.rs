//! A state-vector quantum-circuit simulator with stochastic noise — the
//! stand-in for the IBM and Google hardware in the HAMMER reproduction.
//!
//! # Architecture
//!
//! * [`Circuit`] / [`Gate`] — the circuit IR (terminal Z-basis
//!   measurement implied).
//! * [`StateVector`] — dense ideal simulation up to 24 qubits.
//! * [`simkernel`] / [`SimTuning`] — the gate-kernel subsystem:
//!   specialized index-permutation/butterfly passes (threaded above a
//!   tunable amplitude threshold), with the original scalar loops kept
//!   as `simkernel::reference`, the correctness oracle.
//! * [`NoiseModel`] / [`DeviceModel`] — depolarizing gate faults +
//!   asymmetric readout error, with presets mirroring the paper's
//!   machines (`ibm_paris`, `ibm_manhattan`, `ibm_casablanca`,
//!   `google_sycamore`).
//! * [`TrajectoryEngine`] — exact Monte-Carlo fault injection (gold
//!   standard), with prefix-checkpointed faulty trials and
//!   thread-parallel trial batches under deterministic per-trial RNG
//!   streams.
//! * [`stabilizer`] / [`StabilizerEngine`] — the Aaronson–Gottesman
//!   tableau subsystem: exact noisy sampling of Clifford circuits (BV,
//!   GHZ) at 64–128 qubits, seed-compatible with the trajectory
//!   engine; [`AutoEngine`] dispatches per circuit via
//!   [`Circuit::is_clifford`].
//! * [`PropagationEngine`] — Clifford-skeleton Pauli propagation, the
//!   scalable approximate engine for non-Clifford wide sweeps;
//!   validated against the trajectory engine.
//! * [`transpile`] / [`CouplingMap`] — SWAP routing onto heavy-hex,
//!   grid, linear, ring or full connectivity.
//! * [`entanglement_entropy`] — the §7 entanglement measure (dense
//!   reduced density matrix + Jacobi eigensolver).
//! * [`ReadoutMitigator`] — the tensored readout correction the Google
//!   baseline applies.
//!
//! # Example: a noisy GHZ experiment
//!
//! ```
//! use hammer_sim::{Circuit, DeviceModel, TrajectoryEngine};
//! use hammer_dist::{metrics, BitString};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ghz = Circuit::new(5);
//! ghz.h(0);
//! for q in 0..4 {
//!     ghz.cx(q, q + 1);
//! }
//!
//! let device = DeviceModel::ibm_paris(5);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let counts = TrajectoryEngine::new(&device).sample(&ghz, 4096, &mut rng)?;
//! let dist = counts.to_distribution();
//!
//! let correct = [BitString::zeros(5), BitString::ones(5)];
//! let ehd = metrics::ehd(&dist, &correct);
//! assert!(ehd < 2.5); // errors cluster: far below the uniform n/2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod complex;
mod coupling;
mod device;
mod engine;
mod entanglement;
mod error;
mod gates;
mod linalg;
mod mitigation;
mod noise;
mod propagation;
mod sampler;
pub mod simkernel;
pub mod stabilizer;
mod statevector;
mod trajectory;
mod transpile;

pub use circuit::Circuit;
pub use complex::{Complex, C_I, C_ONE, C_ZERO};
pub use coupling::CouplingMap;
pub use device::DeviceModel;
pub use engine::{AutoEngine, NoiseEngine};
pub use entanglement::entanglement_entropy;
pub use error::SimError;
pub use gates::{Gate, GateQubits};
pub use linalg::CMatrix;
pub use mitigation::ReadoutMitigator;
pub use noise::{NoiseModel, Pauli, PauliFault, ReadoutError};
pub use propagation::{PauliMask, PropagationEngine};
pub use sampler::{AliasSampler, CdfSampler};
pub use simkernel::{GateKernels, SimTuning};
pub use stabilizer::{StabilizerEngine, Tableau};
pub use statevector::{simulate_ideal, StateVector, MAX_DENSE_QUBITS};
pub use trajectory::TrajectoryEngine;
pub use transpile::{transpile, transpile_with_layout, Transpiled};
