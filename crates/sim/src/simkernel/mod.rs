//! The state-vector gate-kernel subsystem.
//!
//! Three tiers, mirroring `hammer_core::kernel`:
//!
//! * [`mod@reference`] — the original scalar loops (generic 2×2 matmul +
//!   full-array scans), kept verbatim as the correctness oracle and the
//!   speedup baseline;
//! * `specialized` — index-permutation / sign-flip passes for the
//!   Pauli/controlled gates and real-coefficient stride-blocked
//!   butterflies for the rotation family (the default serial path);
//! * `threaded` — the specialized kernels fanned out with scoped
//!   threads over disjoint aligned amplitude chunks, engaged above
//!   [`SimTuning::gate_parallel_threshold`].
//!
//! [`SimTuning`] selects the tier; [`apply_gate`] dispatches.

pub mod reference;
mod specialized;
mod threaded;

use crate::complex::Complex;
use crate::gates::Gate;

/// Which gate-application kernels the simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GateKernels {
    /// The original scalar loops ([`mod@reference`]) — oracle + baseline.
    Reference,
    /// The specialized (and, above the threshold, threaded) kernels.
    #[default]
    Specialized,
}

/// Performance tuning of the state-vector simulation layer.
///
/// Like `hammer_core::KernelTuning`, these knobs change *how fast* a
/// simulation runs, never *what* it computes: the property suite pins
/// every configuration to the reference kernels to `≤ 1e-12` amplitude
/// agreement, and a fixed seed yields identical `Counts` at any thread
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTuning {
    /// Gate kernel tier.
    pub kernels: GateKernels,
    /// Checkpoint the noise-free prefix state at fault sites instead of
    /// re-simulating whole circuits per faulty trial
    /// (see [`crate::TrajectoryEngine`]).
    pub checkpoint: bool,
    /// Worker threads for Monte-Carlo trial batches and (above the
    /// threshold) per-gate amplitude passes.
    pub threads: usize,
    /// Minimum amplitude-array length (`2^n`) before a single gate pass
    /// fans out over threads. Below it, thread spawn/join overhead
    /// dominates the `O(2^n)` work and the serial kernel runs instead.
    pub gate_parallel_threshold: usize,
}

impl Default for SimTuning {
    fn default() -> Self {
        Self {
            kernels: GateKernels::Specialized,
            checkpoint: true,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            // 2^16 amplitudes = 1 MiB of state: per-gate work is ~100 µs,
            // comfortably above scoped-thread spawn/join cost.
            gate_parallel_threshold: 1 << 16,
        }
    }
}

impl SimTuning {
    /// The fastest single-threaded configuration: specialized kernels,
    /// checkpointing, no per-gate or per-trial threading. (Constructed
    /// without consulting `available_parallelism`, so it is cheap
    /// enough to build per gate application.)
    #[must_use]
    pub fn serial() -> Self {
        Self {
            kernels: GateKernels::Specialized,
            checkpoint: true,
            threads: 1,
            gate_parallel_threshold: usize::MAX,
        }
    }

    /// The pre-kernel-subsystem baseline: reference kernels, full
    /// re-simulation per faulty trial, one thread. `repro bench-sim`
    /// measures every speedup against this configuration.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            kernels: GateKernels::Reference,
            checkpoint: false,
            threads: 1,
            gate_parallel_threshold: usize::MAX,
        }
    }

    /// `self` with the given worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Applies one gate to a dense amplitude array under `tuning`.
///
/// # Panics
///
/// Panics if a gate operand is out of range for the register `amps`
/// spans.
pub fn apply_gate(amps: &mut [Complex], gate: Gate, tuning: &SimTuning) {
    match tuning.kernels {
        GateKernels::Reference => reference::apply_gate(amps, gate),
        GateKernels::Specialized => {
            if tuning.threads > 1 && amps.len() >= tuning.gate_parallel_threshold {
                threaded::apply_gate(amps, gate, tuning.threads);
            } else {
                specialized::apply_gate(amps, gate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_specialized_checkpointed() {
        let t = SimTuning::default();
        assert_eq!(t.kernels, GateKernels::Specialized);
        assert!(t.checkpoint);
        assert!(t.threads >= 1);
    }

    #[test]
    fn reference_pins_the_baseline() {
        let t = SimTuning::reference();
        assert_eq!(t.kernels, GateKernels::Reference);
        assert!(!t.checkpoint);
        assert_eq!(t.threads, 1);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(SimTuning::default().with_threads(0).threads, 1);
        assert_eq!(SimTuning::default().with_threads(7).threads, 7);
    }
}
