//! The stabilizer Monte-Carlo noise engine: exact noisy sampling of
//! circuits that are Clifford up to the measurement cut, at any width
//! the workspace can express.
//!
//! "Clifford up to the measurement cut" means every gate before the
//! diagonal measurement tail ([`faults::meas_cut`]) is Clifford. The
//! tail may hold any diagonal gate (T, Tdg, arbitrary-angle Rz, ZZ):
//! diagonal gates commute with Z-basis measurement, so the measured
//! distribution is the pre-tail stabilizer state's, and tail faults act
//! as plain bit flips, exactly as on the dense engine.
//!
//! [`StabilizerEngine`] is [`crate::TrajectoryEngine`]'s wide-register
//! twin. It reuses the trajectory layer's machinery wholesale — the
//! same per-trial RNG-stream derivation ([`trial_rng`]), the same
//! [`FaultPlan`] fault sampling, the same fault walk ([`inject`]), the
//! same thread-split trial budget — and replaces only the *state
//! representation*: instead of `2^n` dense amplitudes, a [`Tableau`]
//! computed **once** per call plus one O(gate-count) Pauli-frame walk
//! per faulty trial.
//!
//! Per trial the engines are bit-for-bit interchangeable on circuits
//! that are Clifford up to the measurement cut:
//!
//! * fault sampling consumes the identical RNG prefix (shared code);
//! * the single outcome draw resolves through the ideal state's
//!   [`OutputSupport`]: a stabilizer state measures to a uniform
//!   distribution over an affine subspace of `2^k` outcomes, so the
//!   dense engine's inverse-CDF walk lands on the `⌊u·2^k⌋`-th support
//!   member in ascending basis order — exactly what
//!   [`OutputSupport::sample_with`] computes in closed form. Faults
//!   only shift the subspace: the sampled Pauli frame conjugates
//!   classically to the measurement cut ([`PauliMask`], exact for
//!   Clifford gates), its X component re-bases the coset, and faults in
//!   the diagonal tail reduce to the same outcome bit-flip mask the
//!   dense engine applies;
//! * readout errors apply through the identical `NoiseModel` code.
//!
//! The `stabilizer_oracle` test suite pins `StabilizerEngine` counts to
//! `TrajectoryEngine::sample` **exactly** (same seed, any thread
//! count) on circuits that are Clifford up to the measurement cut, at
//! dense-simulable widths; past the
//! dense cap the tableau path is the only game in town, and the per-gate
//! cost is `O(n)` bit operations instead of `O(2^n)` amplitude passes.

use hammer_dist::{BitString, Counts};
use rand::Rng;

use crate::circuit::Circuit;
use crate::device::DeviceModel;
use crate::error::SimError;
use crate::faults::{self, first_site, flip_mask, inject, FaultPlan, TrialFault};
use crate::gates::Gate;
use crate::noise::NoiseModel;
use crate::propagation::PauliMask;
use crate::trajectory::{
    default_threads, run_trial_blocks, trial_rng, trial_workers, validate_run,
};
use hammer_pool::{CancelToken, Cancelled};

use super::tableau::{OutputSupport, Tableau};

/// The wide-register exact Monte-Carlo engine for circuits that are
/// Clifford up to the measurement cut: every gate before the diagonal
/// measurement tail is Clifford, and the tail may hold any diagonal
/// gate (T, Tdg, arbitrary-angle Rz, ZZ).
///
/// # Example
///
/// ```
/// use hammer_sim::{Circuit, DeviceModel, StabilizerEngine};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // An 80-qubit GHZ experiment — far beyond the dense cap.
/// let mut ghz = Circuit::new(80);
/// ghz.h(0);
/// for q in 0..79 {
///     ghz.cx(q, q + 1);
/// }
/// let device = DeviceModel::google_sycamore(80);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let counts = StabilizerEngine::new(&device).sample(&ghz, 2048, &mut rng)?;
/// assert_eq!(counts.total(), 2048);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StabilizerEngine<'a> {
    device: &'a DeviceModel,
    threads: usize,
}

impl<'a> StabilizerEngine<'a> {
    /// Creates an engine bound to a device model, with the trial budget
    /// split across all cores (the same default as
    /// [`crate::TrajectoryEngine::new`]).
    #[must_use]
    pub fn new(device: &'a DeviceModel) -> Self {
        Self {
            device,
            threads: default_threads(),
        }
    }

    /// Overrides the worker-thread count. Results are unaffected: a
    /// fixed seed yields the same [`Counts`] at any thread count (and
    /// the same counts as the dense trajectory engine, where that can
    /// run at all).
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

    fn validate(&self, circuit: &Circuit, trials: u64) -> Result<(), SimError> {
        validate_run(self.device, circuit, trials)?;
        if let Some(bad) = non_clifford_before_cut(circuit) {
            return Err(SimError::NotClifford(bad.to_string()));
        }
        Ok(())
    }

    /// Executes `circuit` for `trials` trials.
    ///
    /// Draws one `u64` from `rng` to derive an independent,
    /// deterministic RNG stream per trial — the same derivation as
    /// [`crate::TrajectoryEngine::sample`], so on circuits both engines
    /// accept, the same seed produces the same histogram from either.
    ///
    /// # Errors
    ///
    /// * [`SimError::ZeroTrials`] / [`SimError::CircuitTooWide`] as for
    ///   the dense engine;
    /// * [`SimError::NotClifford`] when the circuit is not Clifford up
    ///   to the measurement cut (a non-Clifford gate comes before the
    ///   diagonal tail) — route those circuits to the dense engine (or
    ///   let [`crate::AutoEngine`] dispatch for you).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
    ) -> Result<Counts, SimError> {
        self.sample_inner(circuit, trials, rng, None)
    }

    /// Cancellable [`sample`](StabilizerEngine::sample): the token is
    /// polled between trial batches inside every worker's block.
    /// Uncancelled runs are bit-identical to the infallible path.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token fires mid-run, plus
    /// everything [`sample`](StabilizerEngine::sample) can return.
    pub fn sample_with_cancel<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
        cancel: &CancelToken,
    ) -> Result<Counts, SimError> {
        self.sample_inner(circuit, trials, rng, Some(cancel))
    }

    /// The one sampling body; `None` never fires.
    pub(crate) fn sample_inner<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
        cancel: Option<&CancelToken>,
    ) -> Result<Counts, SimError> {
        self.validate(circuit, trials)?;
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::Cancelled);
        }
        let n = circuit.num_qubits();
        let noise = self.device.noise();

        let workers = trial_workers(self.threads, trials);
        let ctx = StabContext::new(circuit, noise);
        let base_seed = rng.next_u64();
        run_trial_blocks(n, workers, trials, |range| {
            run_trial_block(&ctx, base_seed, range, cancel)
        })
        .map_err(|Cancelled| SimError::Cancelled)
    }
}

/// The first gate before the measurement cut ([`faults::meas_cut`])
/// that is not Clifford, if any. `None` means the circuit is Clifford up
/// to the measurement cut: its pre-measurement state is a stabilizer
/// state, and the non-Clifford gates it may hold sit in the diagonal
/// tail, where they never change a measured bit. This is the whole
/// admission rule of [`StabilizerEngine`] and the routing rule of
/// [`crate::AutoEngine`].
pub(crate) fn non_clifford_before_cut(circuit: &Circuit) -> Option<&Gate> {
    circuit.gates()[..faults::meas_cut(circuit)]
        .iter()
        .find(|g| !g.is_clifford())
}

/// Everything a trial worker needs, computed once per `sample` call
/// and borrowed by every trial block.
struct StabContext<'c> {
    circuit: &'c Circuit,
    noise: &'c NoiseModel,
    /// Where faults strike and how likely (shared with the trajectory
    /// engine — identical RNG consumption per trial).
    faults: FaultPlan,
    /// The ideal output support, extracted once from the tableau of the
    /// gates before the measurement cut (the diagonal tail changes no
    /// measured bit); every trial samples through it.
    support: OutputSupport,
    /// The measurement cut ([`faults::meas_cut`]) the dense engine also
    /// uses: faults at or past it act as outcome bit flips, not frame
    /// conjugations.
    meas_cut: usize,
}

impl<'c> StabContext<'c> {
    fn new(circuit: &'c Circuit, noise: &'c NoiseModel) -> Self {
        let meas_cut = faults::meas_cut(circuit);
        let mut tableau = Tableau::new(circuit.num_qubits());
        for &g in &circuit.gates()[..meas_cut] {
            tableau.apply_gate(g);
        }
        Self {
            faults: FaultPlan::new(circuit, noise),
            support: tableau.output_support(),
            meas_cut,
            circuit,
            noise,
        }
    }
}

/// Runs one contiguous block of trials and tallies its outcomes —
/// the tableau twin of the trajectory engine's trial block, consuming
/// each trial's RNG stream in the identical order: fault sampling, one
/// outcome draw, readout draws.
fn run_trial_block(
    ctx: &StabContext<'_>,
    base_seed: u64,
    range: std::ops::Range<u64>,
    cancel: Option<&CancelToken>,
) -> Result<Counts, Cancelled> {
    // Tableau trials are cheap; poll the token every batch of trials
    // (per-trial RNG streams make the check sites invisible to
    // uncancelled results).
    const CHECK_EVERY: u64 = 64;
    let n = ctx.circuit.num_qubits();
    let mut counts = Counts::new(n).expect("validated width");
    let mut faults: Vec<TrialFault> = Vec::new();
    for t in range {
        if t % CHECK_EVERY == 0 {
            if let Some(token) = cancel {
                token.check()?;
            }
        }
        let mut rng = trial_rng(base_seed, t);
        faults.clear();
        ctx.faults.sample_faults(&mut faults, &mut rng);
        let (reduced_offset, tail_mask) = if faults.is_empty() {
            (ctx.support.offset(), 0)
        } else {
            // The sampled faults walk as a Pauli frame to the measurement
            // cut. Only the frame's X component shifts the support; the Z
            // component rides along because H-type gates rotate it into
            // X. Faults past the cut flip outcome bits, as on the dense
            // engine.
            let start = first_site(&faults, ctx.circuit.gate_count()).min(ctx.meas_cut);
            let mut frame = PauliMask::identity();
            let walked = inject(ctx.circuit, &faults, start..ctx.meas_cut, &mut frame);
            (
                ctx.support.reduce(ctx.support.offset() ^ frame.x),
                flip_mask(ctx.circuit, &faults[walked..]),
            )
        };
        let raw = ctx.support.sample_outcome(reduced_offset, &mut rng) ^ tail_mask;
        let outcome = BitString::from_u128(raw, n);
        counts.record(ctx.noise.apply_readout(outcome, &mut rng));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_dist::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    #[test]
    fn zero_trials_rejected() {
        let device = DeviceModel::noiseless(2);
        let engine = StabilizerEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            engine.sample(&ghz(2), 0, &mut rng),
            Err(SimError::ZeroTrials)
        );
    }

    #[test]
    fn non_clifford_circuit_rejected() {
        let device = DeviceModel::noiseless(2);
        let engine = StabilizerEngine::new(&device);
        // The H after the T puts it before the measurement cut.
        let mut c = Circuit::new(2);
        c.h(0).t(1).h(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            engine.sample(&c, 16, &mut rng),
            Err(SimError::NotClifford("t q1".into()))
        );
    }

    #[test]
    fn wide_circuit_rejected_by_device() {
        let device = DeviceModel::noiseless(2);
        let engine = StabilizerEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            engine.sample(&ghz(3), 16, &mut rng),
            Err(SimError::CircuitTooWide {
                circuit: 3,
                device: 2
            })
        ));
    }

    #[test]
    fn noiseless_wide_ghz_has_only_the_two_branches() {
        let n = 96;
        let device = DeviceModel::noiseless(n);
        let engine = StabilizerEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(5);
        let counts = engine.sample(&ghz(n), 4000, &mut rng).unwrap();
        assert_eq!(counts.total(), 4000);
        let dist = counts.to_distribution();
        assert_eq!(dist.len(), 2);
        let p0 = dist.prob(BitString::zeros(n));
        assert!((p0 - 0.5).abs() < 0.05, "branch probability {p0}");
    }

    #[test]
    fn noisy_wide_ghz_errors_cluster_near_correct() {
        let n = 100;
        let device = DeviceModel::google_sycamore(n);
        let engine = StabilizerEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(11);
        let dist = engine
            .sample(&ghz(n), 4000, &mut rng)
            .unwrap()
            .to_distribution();
        let correct = [BitString::zeros(n), BitString::ones(n)];
        let p = metrics::pst(&dist, &correct);
        assert!(p < 0.999, "expected some errors, pst = {p}");
        assert!(p > 0.01, "unexpectedly destructive noise, pst = {p}");
        // The defining Hamming behavior: EHD far below the uniform n/2.
        let e = metrics::ehd(&dist, &correct);
        assert!(e < 25.0, "ehd {e} should be far below {}", n / 2);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let device = DeviceModel::ibm_paris(6);
        let engine = StabilizerEngine::new(&device);
        let a = engine
            .sample(&ghz(6), 700, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = engine
            .sample(&ghz(6), 700, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_counts() {
        let device = DeviceModel::ibm_paris(8);
        let circuit = ghz(8);
        let reference = StabilizerEngine::new(&device)
            .with_threads(1)
            .sample(&circuit, 600, &mut StdRng::seed_from_u64(9))
            .unwrap();
        for threads in [2, 3, 7] {
            let got = StabilizerEngine::new(&device)
                .with_threads(threads)
                .sample(&circuit, 600, &mut StdRng::seed_from_u64(9))
                .unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn idle_noise_degrades_waiting_qubits() {
        // The trajectory engine's idle experiment, on the tableau path:
        // qubit 1 idles for the whole schedule while qubit 0 works.
        let mut c = Circuit::new(3);
        for _ in 0..10 {
            c.x(0).x(0);
        }
        c.x(2);
        let coupling = crate::coupling::CouplingMap::full(3);
        let noise =
            crate::noise::NoiseModel::uniform(3, 0.0, 0.0, crate::noise::ReadoutError::ideal())
                .with_idle_rate(0.02);
        let device = DeviceModel::new("idle-only", coupling, noise);
        let engine = StabilizerEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(41);
        let dist = engine.sample(&c, 8000, &mut rng).unwrap().to_distribution();
        let p_q1: f64 = dist.iter().filter(|(x, _)| x.bit(1)).map(|(_, p)| p).sum();
        let p_q0: f64 = dist.iter().filter(|(x, _)| x.bit(0)).map(|(_, p)| p).sum();
        assert!(
            p_q1 > 5.0 * p_q0.max(1e-4),
            "idle qubit flip rate {p_q1} vs busy {p_q0}"
        );
        assert!(p_q1 > 0.05, "idle noise should be visible");
    }
}
