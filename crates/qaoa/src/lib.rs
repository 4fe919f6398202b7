//! The variational QAOA workflow of the paper's evaluation: expectation
//! and cost-ratio scoring, (β, γ) landscape scans, a Nelder–Mead
//! optimizer, and an end-to-end runner with pluggable post-processing
//! (baseline / readout mitigation / HAMMER).
//!
//! The runner always SWAP-routes onto the device's coupling map and
//! samples on [`hammer_sim::PropagationEngine`], the simulator's one
//! approximate engine: QAOA circuits are not Clifford, so no tableau
//! route exists, and the paper's 20-qubit sweeps over thousands of
//! trials are past what per-trial dense evolution affords. There is no
//! engine or routing option.
//!
//! # Example: HAMMER inside the variational loop
//!
//! ```
//! use hammer_graphs::{generators, MaxCut};
//! use hammer_qaoa::{PostProcess, QaoaParams, QaoaRunner};
//! use hammer_core::HammerConfig;
//! use hammer_sim::DeviceModel;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = MaxCut::new(generators::ring(6));
//! let runner = QaoaRunner::new(problem, DeviceModel::ibm_paris(6)).trials(1024);
//! let params = QaoaParams::constant(1, 1.99, 2.72);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let hammered = runner.run_with(
//!     &params,
//!     &PostProcess::Hammer(HammerConfig::paper()),
//!     &mut rng,
//! )?;
//! assert!(hammered.cost_ratio.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expectation;
mod landscape;
mod optimizer;
mod params;
mod runner;

pub use landscape::Landscape;
pub use optimizer::{NelderMead, OptimizationResult};
pub use params::QaoaParams;
pub use runner::{PostProcess, QaoaOutcome, QaoaRunner};
