//! Error type for the simulation and transpilation entry points.

use std::fmt;

/// Errors produced by the simulator, engines and transpiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A circuit addresses more qubits than the device provides.
    CircuitTooWide {
        /// Circuit register width.
        circuit: usize,
        /// Device qubit count.
        device: usize,
    },
    /// A sampling call requested zero trials.
    ZeroTrials,
    /// The coupling map cannot route the circuit (disconnected).
    Unroutable,
    /// Dense simulation was requested beyond the supported width.
    TooManyQubitsForDense(usize),
    /// The stabilizer (tableau) engine was handed a circuit that is not
    /// Clifford up to the measurement cut: a non-Clifford gate comes
    /// before the diagonal measurement tail. The payload names the first
    /// such gate.
    NotClifford(String),
    /// A cancellable sampling call was stopped by its
    /// [`CancelToken`](hammer_pool::CancelToken) before completion.
    Cancelled,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CircuitTooWide { circuit, device } => write!(
                f,
                "circuit uses {circuit} qubits but the device has only {device}"
            ),
            Self::ZeroTrials => write!(f, "sampling requires at least one trial"),
            Self::Unroutable => write!(f, "coupling map is disconnected; circuit cannot be routed"),
            Self::TooManyQubitsForDense(n) => {
                write!(f, "dense simulation limited to 24 qubits, got {n}")
            }
            Self::NotClifford(gate) => {
                write!(
                    f,
                    "stabilizer simulation requires a circuit that is Clifford up to the measurement cut; found {gate}"
                )
            }
            Self::Cancelled => write!(f, "sampling cancelled before completion"),
        }
    }
}

impl std::error::Error for SimError {}
