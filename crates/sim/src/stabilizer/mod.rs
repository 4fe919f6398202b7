//! The stabilizer simulation subsystem: Aaronson–Gottesman tableaus
//! plus Pauli-fault trajectories, lifting the dense
//! [`crate::MAX_DENSE_QUBITS`]-qubit cap for circuits that are Clifford
//! up to the measurement cut.
//!
//! HAMMER's headline benchmarks (BV, GHZ) are Clifford-only, and
//! Pauli-channel noise is Clifford too — so the exact noisy-counts
//! regime the paper post-processes is simulable at `O(n²)` per gate
//! instead of `O(2^n)`. The subsystem mirrors the PR 2/PR 3 playbook:
//!
//! * [`Tableau`] — the CHP tableau: `u64`-packed X/Z/phase bit-rows,
//!   `swap`-free row products via XOR limbs with bit-parallel mod-4
//!   phase accumulation, the full Clifford gate set (including `Rz` at
//!   `π/2` multiples), Pauli fault injection, and
//!   deterministic/random measurement per Aaronson–Gottesman;
//! * [`OutputSupport`] — the measurement distribution in closed form
//!   (an affine subspace in canonical sorted-enumeration order), which
//!   is what lets one uniform draw resolve to the *same* outcome the
//!   dense engine's inverse-CDF walk would pick;
//! * [`StabilizerEngine`] — the Monte-Carlo engine beside
//!   [`crate::TrajectoryEngine`]: same per-trial RNG streams, same
//!   fault plan, same thread-split trial budget, with faulty trials
//!   realized as `O(gates)` Pauli-frame walks instead of state-vector
//!   evolutions. Fixed seed ⇒ identical [`hammer_dist::Counts`] at any
//!   thread count, and identical counts to the dense engine wherever
//!   both can run.
//!
//! [`crate::AutoEngine`] routes circuits that are Clifford up to the
//! measurement cut here automatically and everything else to the dense simkernel, which remains the
//! correctness oracle (`tests/stabilizer_oracle.rs`).

mod engine;
mod tableau;

pub(crate) use engine::non_clifford_before_cut;
pub use engine::StabilizerEngine;
pub use tableau::{Measurement, OutputSupport, Tableau};
