//! The common interface of the noise engines, plus the automatic
//! dense/stabilizer dispatcher, which sends every circuit that is
//! Clifford up to the measurement cut to the tableau.

use hammer_dist::{Counts, Distribution};
use rand::{Rng, RngCore};

use crate::circuit::Circuit;
use crate::device::DeviceModel;
use crate::error::SimError;
use crate::stabilizer::{non_clifford_before_cut, StabilizerEngine};
use crate::trajectory::{default_threads, TrajectoryEngine};

/// A noisy executor: something that runs a circuit for a number of trials
/// on a simulated device and returns the measured histogram — the role a
/// real IBM/Google backend plays in the paper.
///
/// The implementations:
///
/// * [`crate::TrajectoryEngine`] — exact state-vector Monte-Carlo with
///   stochastic Pauli injection (gold standard, dense: capped at
///   [`crate::MAX_DENSE_QUBITS`] qubits);
/// * [`crate::StabilizerEngine`] — exact tableau Monte-Carlo for
///   circuits that are Clifford up to the measurement cut (any
///   non-Clifford gate sits in the diagonal measurement tail), at any
///   workspace width (64–128-qubit BV/GHZ sweeps), seed-compatible with
///   the trajectory engine;
/// * [`crate::AutoEngine`] — routes each circuit to one of the above:
///   the tableau when it is Clifford up to the measurement cut, the
///   dense engine otherwise;
/// * [`crate::PropagationEngine`] — approximate Clifford-skeleton
///   Pauli-fault propagation over an ideal sample: O(gates) per trial
///   with no state evolution, but capped at
///   [`crate::MAX_DENSE_QUBITS`] qubits like the trajectory engine,
///   because the ideal sample comes from a dense state vector
///   (cross-validated against the trajectory engine).
pub trait NoiseEngine {
    /// Short engine identifier for reports.
    fn engine_name(&self) -> &'static str;

    /// Executes `circuit` for `trials` trials and tallies the outcomes.
    ///
    /// # Errors
    ///
    /// * [`SimError::ZeroTrials`] if `trials == 0`;
    /// * [`SimError::CircuitTooWide`] if the circuit exceeds the device;
    /// * [`SimError::TooManyQubitsForDense`] if the width exceeds dense
    ///   simulation limits.
    fn sample_counts(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut dyn RngCore,
    ) -> Result<Counts, SimError>;

    /// Convenience: sample and normalize into a [`Distribution`].
    ///
    /// # Errors
    ///
    /// Same as [`NoiseEngine::sample_counts`].
    fn noisy_distribution(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut dyn RngCore,
    ) -> Result<Distribution, SimError> {
        Ok(self.sample_counts(circuit, trials, rng)?.to_distribution())
    }
}

/// The automatic dense/stabilizer dispatcher: circuits that are
/// Clifford up to the measurement cut (BV, GHZ, Clifford skeletons, and
/// those with T, Rz or ZZ gates only in the diagonal measurement tail)
/// run on the tableau path at any workspace width; everything else runs
/// on the dense simkernel, which remains the correctness oracle.
///
/// Dispatch is seamless because the two engines are seed-compatible:
/// for a circuit that is Clifford up to the measurement cut, at
/// dense-simulable width, routing either way
/// yields the *identical* histogram under the same seed (pinned by the
/// `stabilizer_oracle` suite), so the router never changes results —
/// it only changes which widths are reachable.
///
/// # Example
///
/// ```
/// use hammer_sim::{AutoEngine, Circuit, DeviceModel, NoiseEngine};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let device = DeviceModel::google_sycamore(72);
/// let engine = AutoEngine::new(&device);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
///
/// // Clifford and 72 qubits wide: silently takes the tableau path.
/// let mut ghz = Circuit::new(72);
/// ghz.h(0);
/// for q in 0..71 {
///     ghz.cx(q, q + 1);
/// }
/// assert_eq!(engine.route(&ghz), "stabilizer");
/// let counts = engine.sample(&ghz, 1024, &mut rng)?;
/// assert_eq!(counts.total(), 1024);
///
/// // A T gate in the diagonal measurement tail keeps the tableau path…
/// let mut tail = Circuit::new(4);
/// tail.h(0).t(0);
/// assert_eq!(engine.route(&tail), "stabilizer");
///
/// // …but a T before the measurement cut forces the dense path (and
/// // its width cap).
/// let mut t = Circuit::new(4);
/// t.h(0).t(0).h(0);
/// assert_eq!(engine.route(&t), "trajectory");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AutoEngine<'a> {
    device: &'a DeviceModel,
    threads: usize,
}

impl<'a> AutoEngine<'a> {
    /// Creates a dispatcher bound to a device model, with the trial
    /// budget split across all cores.
    #[must_use]
    pub fn new(device: &'a DeviceModel) -> Self {
        Self {
            device,
            threads: default_threads(),
        }
    }

    /// Overrides the worker-thread count, forwarded to whichever engine
    /// a circuit dispatches to. Results are unaffected: a fixed seed
    /// yields the same [`Counts`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// The worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The device this engine executes on.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        self.device
    }

    /// Which engine a circuit would dispatch to: `"stabilizer"` for
    /// circuits that are Clifford up to the measurement cut (every gate
    /// before the diagonal measurement tail is Clifford),
    /// `"trajectory"` otherwise.
    #[must_use]
    pub fn route(&self, circuit: &Circuit) -> &'static str {
        if non_clifford_before_cut(circuit).is_none() {
            "stabilizer"
        } else {
            "trajectory"
        }
    }

    /// Executes `circuit` for `trials` trials on the dispatched engine.
    ///
    /// # Errors
    ///
    /// See [`NoiseEngine::sample_counts`]; `NotClifford` can never
    /// surface (those circuits dispatch densely), but circuits with a
    /// non-Clifford gate before the measurement cut still fail past
    /// [`crate::MAX_DENSE_QUBITS`] with
    /// [`SimError::TooManyQubitsForDense`].
    pub fn sample<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
    ) -> Result<Counts, SimError> {
        self.sample_inner(circuit, trials, rng, None)
    }

    /// Cancellable [`sample`](AutoEngine::sample): forwards the token
    /// to whichever engine the circuit dispatches to.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token fires mid-run, plus
    /// everything [`sample`](AutoEngine::sample) can return.
    pub fn sample_with_cancel<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
        cancel: &hammer_pool::CancelToken,
    ) -> Result<Counts, SimError> {
        self.sample_inner(circuit, trials, rng, Some(cancel))
    }

    /// The one dispatch body; `None` never fires.
    fn sample_inner<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
        cancel: Option<&hammer_pool::CancelToken>,
    ) -> Result<Counts, SimError> {
        let _t = sample_hist().start();
        if non_clifford_before_cut(circuit).is_none() {
            StabilizerEngine::new(self.device)
                .with_threads(self.threads)
                .sample_inner(circuit, trials, rng, cancel)
        } else {
            TrajectoryEngine::new(self.device)
                .with_threads(self.threads)
                .sample_inner(circuit, trials, rng, cancel)
        }
    }
}

/// Per-call wall-time histogram for the auto-dispatched sampling entry
/// points, on the global registry (`sim.sample_ns`). Entry-point
/// granularity only — per-trial and per-gate loops are never touched.
fn sample_hist() -> &'static hammer_obs::Histogram {
    static H: std::sync::OnceLock<hammer_obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| hammer_obs::Registry::global().histogram("sim.sample_ns"))
}

impl NoiseEngine for AutoEngine<'_> {
    fn engine_name(&self) -> &'static str {
        "auto"
    }

    fn sample_counts(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut dyn RngCore,
    ) -> Result<Counts, SimError> {
        self.sample(circuit, trials, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_rejected() {
        let device = DeviceModel::noiseless(2);
        let _ = AutoEngine::new(&device).with_threads(0);
    }

    #[test]
    fn clifford_to_the_cut_runs_past_the_dense_cap() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let device = DeviceModel::google_sycamore(40);
        let engine = AutoEngine::new(&device);
        // GHZ-40 plus a T: the T is the diagonal tail.
        let mut ghz = Circuit::new(40);
        ghz.h(0);
        for q in 0..39 {
            ghz.cx(q, q + 1);
        }
        ghz.t(39);
        assert_eq!(engine.route(&ghz), "stabilizer");
        let counts = engine.sample(&ghz, 256, &mut rng).unwrap();
        assert_eq!(counts.total(), 256);
        // A T before an H is not in the tail: dense, and too wide.
        let mut early = Circuit::new(30);
        early.t(0).h(0);
        assert_eq!(engine.route(&early), "trajectory");
        assert_eq!(
            engine.sample(&early, 16, &mut rng),
            Err(SimError::TooManyQubitsForDense(30))
        );
    }
}
