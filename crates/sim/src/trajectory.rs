//! Monte-Carlo trajectory simulation: exact state-vector evolution with
//! stochastic Pauli fault injection.
//!
//! Each trial samples a fault configuration (per-gate depolarizing
//! events plus idle decoherence); fault-free trials sample from the
//! cached ideal state, faulty trials evolve the circuit with the
//! sampled Paulis injected. This is the gold-standard engine: it makes
//! no approximation beyond the noise model itself.
//!
//! # The fast path
//!
//! The engine no longer re-simulates the whole circuit per faulty
//! trial. It:
//!
//! * applies gates through the specialized `simkernel` passes
//!   (index-permutation Paulis, real-coefficient butterflies) instead
//!   of the generic dense matmul;
//! * **checkpoints the noise-free prefix**: each batch of faulty trials
//!   is sorted by first-fault gate index, the shared prefix state is
//!   evolved once and forked (buffer-reusing copy) per trial, so only
//!   the suffix after the first fault is simulated per trial;
//! * draws one geometric/binomial sample per idle period instead of one
//!   Bernoulli draw per idle moment;
//! * splits the trial budget across worker threads, each trial owning a
//!   deterministically-derived RNG stream, so a fixed seed yields
//!   identical [`Counts`] at any thread count;
//! * resolves every per-trial outcome with **one** uniform draw through
//!   an inverse-CDF sampler ([`crate::CdfSampler`] for fault-free and
//!   diagonal-tail trials, the state-vector walk for evolved trials).
//!
//! Faults are injected by the walker in `faults.rs` that every engine
//! shares: the state evolves through the window from the first fault to
//! the measurement cut, and faults in the diagonal tail after it reduce
//! to outcome bit flips.
//!
//! The single-draw discipline is shared with
//! [`crate::StabilizerEngine`]: both engines derive the same per-trial
//! streams, sample the same fault configurations through the shared
//! [`FaultPlan`], and map the same uniform draw onto the same ranked
//! support element — which is why a fixed seed yields *identical*
//! counts from either engine on circuits that are Clifford up to the
//! measurement cut (the
//! `stabilizer_oracle` suite pins this exactly). RNG-stream note: the
//! outcome draw changed from the PR 3 alias sampler (two draws) to the
//! CDF sampler (one draw), so concrete histograms for a given seed
//! differ from PR 3; the sampled distribution is unchanged.
//!
//! The pre-subsystem path survives as
//! [`TrajectoryEngine::sample_reference`] (the `repro bench-sim`
//! baseline); `tests/simkernel_oracle.rs` pins the checkpointed
//! trajectories to it at the amplitude level.

use hammer_dist::{BitString, Counts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::circuit::Circuit;
use crate::device::DeviceModel;
use crate::error::SimError;
use crate::faults::{self, first_site, flip_mask, inject, pauli_gate, FaultPlan, TrialFault};
use crate::gates::{Gate, GateQubits};
use crate::noise::NoiseModel;
use crate::sampler::{AliasSampler, CdfSampler};
use crate::simkernel::reference;
use crate::statevector::{StateVector, MAX_DENSE_QUBITS};
use hammer_pool::{CancelToken, Cancelled};

/// The exact Monte-Carlo noise engine.
///
/// # Example
///
/// ```
/// use hammer_sim::{Circuit, DeviceModel, TrajectoryEngine};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ghz = Circuit::new(4);
/// ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
/// let device = DeviceModel::ibm_paris(4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let counts = TrajectoryEngine::new(&device).sample(&ghz, 2048, &mut rng)?;
/// assert_eq!(counts.total(), 2048);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TrajectoryEngine<'a> {
    device: &'a DeviceModel,
    threads: usize,
}

impl<'a> TrajectoryEngine<'a> {
    /// Creates an engine bound to a device model, with the trial budget
    /// split across all cores.
    #[must_use]
    pub fn new(device: &'a DeviceModel) -> Self {
        Self {
            device,
            threads: default_threads(),
        }
    }

    /// Overrides the worker-thread count. Results are unaffected: a
    /// fixed seed yields the same [`Counts`] at any thread count.
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

    /// Executes `circuit` for `trials` trials.
    ///
    /// Draws one `u64` from `rng` to derive an independent,
    /// deterministic RNG stream per trial; everything after that is a
    /// pure function of the per-trial streams, so the returned
    /// histogram is identical at any [`threads`](Self::threads) setting.
    ///
    /// # Errors
    ///
    /// * [`SimError::ZeroTrials`] if `trials == 0`;
    /// * [`SimError::CircuitTooWide`] if the circuit exceeds the device;
    /// * [`SimError::TooManyQubitsForDense`] if the width exceeds
    ///   [`MAX_DENSE_QUBITS`].
    pub fn sample<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
    ) -> Result<Counts, SimError> {
        self.sample_inner(circuit, trials, rng, None)
    }

    /// Cancellable [`sample`](TrajectoryEngine::sample): the token is
    /// polled between trial batches inside every worker's block, so a
    /// fired token stops a long sampling job within a few dozen trials.
    /// Uncancelled runs consume identical per-trial RNG streams and
    /// return bit-identical [`Counts`].
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] when the token fires mid-run, plus
    /// everything [`sample`](TrajectoryEngine::sample) can return.
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
        validate_dense(self.device, circuit, trials)?;
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::Cancelled);
        }
        let n = circuit.num_qubits();
        let noise = self.device.noise();

        let workers = trial_workers(self.threads, trials);
        let ctx = TrialContext::new(circuit, noise);
        let base_seed = rng.next_u64();
        run_trial_blocks(n, workers, trials, |range| {
            run_trial_block(&ctx, base_seed, range, cancel)
        })
        .map_err(|Cancelled| SimError::Cancelled)
    }

    /// The pre-kernel-subsystem sampling loop, kept draw for draw: generic
    /// scalar gate kernels, a fresh full-circuit re-simulation per
    /// faulty trial, one Bernoulli draw per idle moment, and a dense
    /// probability vector for the ideal sampler. This is the `repro
    /// bench-sim` baseline and the statistical cross-check for the fast
    /// path.
    ///
    /// # Errors
    ///
    /// Same as [`sample`](Self::sample).
    pub fn sample_reference<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
    ) -> Result<Counts, SimError> {
        validate_dense(self.device, circuit, trials)?;
        let n = circuit.num_qubits();
        let noise = self.device.noise();
        let plan = FaultPlan::new(circuit, noise);

        // Ideal final state, reused by every fault-free trial.
        let mut ideal = StateVector::new(n);
        evolve_with_faults(&mut ideal, circuit, &[]);
        let ideal_sampler = AliasSampler::new(&ideal.probabilities()).expect("normalized state");

        let mut counts = Counts::new(n).expect("validated width");
        let mut faults: Vec<TrialFault> = Vec::new();
        for _ in 0..trials {
            faults.clear();
            plan.sample_faults_per_moment(&mut faults, rng);
            let outcome = if faults.is_empty() {
                BitString::new(ideal_sampler.sample(rng) as u64, n)
            } else {
                let mut sv = StateVector::new(n);
                evolve_with_faults(&mut sv, circuit, &faults);
                sv.sample(rng)
            };
            counts.record(noise.apply_readout(outcome, rng));
        }
        Ok(counts)
    }
}

/// Everything a trial worker needs, assembled once per `sample` call
/// and borrowed by every trial block.
struct TrialContext<'c> {
    circuit: &'c Circuit,
    noise: &'c NoiseModel,
    /// Where faults strike and how likely (shared with the stabilizer
    /// engine).
    faults: FaultPlan,
    /// Ideal output sampler for fault-free trials, streamed straight
    /// from the final amplitudes (no dense probability vector). One
    /// uniform draw per sample, mapped onto the support in ascending
    /// basis order — the discipline the stabilizer engine mirrors.
    ideal_sampler: CdfSampler,
    /// The measurement cut ([`faults::meas_cut`]): trajectories stop
    /// evolving here, and trials whose *first* fault lands at or past
    /// it skip state evolution entirely (ideal sample XOR flip mask).
    meas_cut: usize,
}

impl<'c> TrialContext<'c> {
    fn new(circuit: &'c Circuit, noise: &'c NoiseModel) -> Self {
        let ideal = StateVector::from_circuit(circuit);
        let ideal_sampler =
            CdfSampler::from_weights_iter(ideal.amplitudes().iter().map(|a| a.norm_sqr()))
                .expect("normalized state");
        Self {
            circuit,
            noise,
            faults: FaultPlan::new(circuit, noise),
            ideal_sampler,
            meas_cut: faults::meas_cut(circuit),
        }
    }
}

/// A faulty trial carried from the sampling phase to the simulation
/// phase: its fault set, the prefix length it can share, and its RNG
/// stream (resumed for outcome sampling and readout).
struct FaultyTrial {
    /// Gates `0..fork` are noise-free and shareable with other trials.
    fork: usize,
    faults: Vec<TrialFault>,
    rng: StdRng,
}

/// The run checks of the dense engines: a nonzero trial budget and a
/// circuit that fits both the device and the dense state vector.
pub(crate) fn validate_dense(
    device: &DeviceModel,
    circuit: &Circuit,
    trials: u64,
) -> Result<(), SimError> {
    validate_run(device, circuit, trials)?;
    if circuit.num_qubits() > MAX_DENSE_QUBITS {
        return Err(SimError::TooManyQubitsForDense(circuit.num_qubits()));
    }
    Ok(())
}

/// The run checks of every engine: a nonzero trial budget and a circuit
/// no wider than the device.
pub(crate) fn validate_run(
    device: &DeviceModel,
    circuit: &Circuit,
    trials: u64,
) -> Result<(), SimError> {
    if trials == 0 {
        return Err(SimError::ZeroTrials);
    }
    if circuit.num_qubits() > device.num_qubits() {
        return Err(SimError::CircuitTooWide {
            circuit: circuit.num_qubits(),
            device: device.num_qubits(),
        });
    }
    Ok(())
}

/// The default worker-thread count of every engine: all cores.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Number of trial workers a sampling call actually spawns: the
/// configured thread count, but never more than one worker per trial.
pub(crate) fn trial_workers(threads: usize, trials: u64) -> usize {
    (threads as u64).min(trials) as usize
}

/// Splits `trials` into one contiguous block per worker, runs
/// `run_block` on each, and merges the per-worker histograms. Shared by
/// the trajectory and stabilizer engines so their trial partitioning —
/// part of the engines' bit-for-bit seed-compatibility story, since
/// both must hand the same trial indices to the same per-trial streams
/// — can never drift apart.
///
/// Above one worker the blocks run as tiles on
/// [`hammer_pool::run_tiles`]. The block cuts depend only on `workers`,
/// and per-trial streams make each block independent of the thread
/// that runs it, so the merged [`Counts`] are identical at every
/// thread count.
pub(crate) fn run_trial_blocks<F>(
    n: usize,
    workers: usize,
    trials: u64,
    run_block: F,
) -> Result<Counts, Cancelled>
where
    F: Fn(std::ops::Range<u64>) -> Result<Counts, Cancelled> + Sync,
{
    if workers <= 1 {
        return run_block(0..trials);
    }
    let per = trials.div_ceil(workers as u64);
    // Blocks poll the caller's token themselves, so the executor runs
    // without one.
    let block_counts = hammer_pool::run_tiles(workers, workers, None, |w| {
        let w = w as u64;
        run_block((w * per)..((w + 1) * per).min(trials))
    })
    .expect("no token, so the run cannot be cancelled");
    // Merge in block order (deterministic); any cancelled block cancels
    // the whole call — a partial histogram would be statistically
    // biased toward the fast blocks.
    let mut merged = Counts::new(n).expect("validated width");
    for counts in block_counts {
        for (outcome, c) in counts?.iter() {
            merged.record_n(outcome, c);
        }
    }
    Ok(merged)
}

/// The per-trial RNG stream: independent of thread count by
/// construction (`trial` indexes the stream, not the worker). Shared
/// with the stabilizer engine — same seed, same trial, same stream,
/// whichever engine runs it.
pub(crate) fn trial_rng(base_seed: u64, trial: u64) -> StdRng {
    StdRng::seed_from_u64(base_seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one contiguous block of trials and tallies its outcomes.
///
/// Phase A samples every trial's fault configuration (resolving
/// fault-free trials immediately off the ideal sampler); phase B sorts
/// the faulty trials by first-fault site and simulates them off a
/// shared, incrementally-advanced prefix state.
fn run_trial_block(
    ctx: &TrialContext<'_>,
    base_seed: u64,
    range: std::ops::Range<u64>,
    cancel: Option<&CancelToken>,
) -> Result<Counts, Cancelled> {
    let n = ctx.circuit.num_qubits();
    let gate_count = ctx.circuit.gate_count();
    let mut counts = Counts::new(n).expect("validated width");

    // Phase A: fault sampling. The token is polled every CHECK_EVERY
    // trials — RNG streams are per-trial, so the check sites cannot
    // perturb an uncancelled histogram.
    const CHECK_EVERY: u64 = 64;
    let mut faulty: Vec<FaultyTrial> = Vec::new();
    let mut scratch_faults: Vec<TrialFault> = Vec::new();
    for t in range {
        if t % CHECK_EVERY == 0 {
            if let Some(token) = cancel {
                token.check()?;
            }
        }
        let mut rng = trial_rng(base_seed, t);
        scratch_faults.clear();
        ctx.faults.sample_faults(&mut scratch_faults, &mut rng);
        if scratch_faults.is_empty() {
            let outcome = BitString::new(ctx.ideal_sampler.sample(&mut rng) as u64, n);
            counts.record(ctx.noise.apply_readout(outcome, &mut rng));
        } else {
            faulty.push(FaultyTrial {
                fork: first_site(&scratch_faults, gate_count),
                faults: std::mem::take(&mut scratch_faults),
                rng,
            });
        }
    }

    // Phase B: faulty-trial simulation. Sort by fork point so the
    // shared prefix only ever advances.
    faulty.sort_by_key(|f| f.fork);
    let mut prefix = StateVector::new(n);
    let mut prefix_len = 0usize;
    let mut scratch = StateVector::new(n);
    for (fi, trial) in faulty.iter_mut().enumerate() {
        // Faulty trials cost a state-vector window each — poll more
        // often than phase A.
        if fi % 16 == 0 {
            if let Some(token) = cancel {
                token.check()?;
            }
        }
        // Trials whose first fault lands in the diagonal tail need no
        // state evolution at all: the pre-tail state has the ideal
        // measurement distribution, and tail faults only flip bits.
        let (draw, walked) = if trial.fork >= ctx.meas_cut {
            (ctx.ideal_sampler.sample(&mut trial.rng) as u64, 0)
        } else {
            for &g in &ctx.circuit.gates()[prefix_len..trial.fork] {
                prefix.apply_gate(g);
            }
            prefix_len = trial.fork;
            scratch.copy_from(&prefix);
            let walked = inject(
                ctx.circuit,
                &trial.faults,
                trial.fork..ctx.meas_cut,
                &mut scratch,
            );
            (scratch.sample(&mut trial.rng).as_u64(), walked)
        };
        // Dense registers cap at MAX_DENSE_QUBITS, far inside u64.
        let raw = draw ^ flip_mask(ctx.circuit, &trial.faults[walked..]) as u64;
        let outcome = BitString::new(raw, n);
        counts.record(ctx.noise.apply_readout(outcome, &mut trial.rng));
    }
    Ok(counts)
}

/// Evolves `sv` through the whole circuit on the
/// [`reference`] kernels with the given faults injected at their
/// recorded positions (idle faults before their gate, gate faults
/// after, end faults before measurement) — the original full-evolution
/// loop, kept for [`TrajectoryEngine::sample_reference`]. `faults` must
/// be ordered by gate index with `End` faults last.
fn evolve_with_faults(sv: &mut StateVector, circuit: &Circuit, faults: &[TrialFault]) {
    let mut apply = |g: Gate| reference::apply_gate(sv.amplitudes_mut(), g);
    let mut next = 0usize;
    for (gi, &g) in circuit.gates().iter().enumerate() {
        while next < faults.len() {
            match faults[next] {
                TrialFault::BeforeGate { idx, qubit, pauli } if idx == gi => {
                    apply(pauli_gate(pauli, qubit));
                    next += 1;
                }
                _ => break,
            }
        }
        apply(g);
        while next < faults.len() {
            match faults[next] {
                TrialFault::AfterGate { idx, fault } if idx == gi => {
                    let (qa, qb) = match g.qubits() {
                        GateQubits::One(a) => (a, None),
                        GateQubits::Two(a, b) => (a, Some(b)),
                    };
                    if let Some(p) = fault.first {
                        apply(pauli_gate(p, qa));
                    }
                    if let (Some(p), Some(b)) = (fault.second, qb) {
                        apply(pauli_gate(p, b));
                    }
                    next += 1;
                }
                _ => break,
            }
        }
    }
    for f in &faults[next..] {
        if let TrialFault::End { qubit, pauli } = *f {
            apply(pauli_gate(pauli, qubit));
        }
    }
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
        let engine = TrajectoryEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            engine.sample(&ghz(2), 0, &mut rng),
            Err(SimError::ZeroTrials)
        );
    }

    #[test]
    fn wide_circuit_rejected() {
        let device = DeviceModel::noiseless(2);
        let engine = TrajectoryEngine::new(&device);
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
    fn uncancelled_sample_with_cancel_is_bit_identical() {
        let device = DeviceModel::ibm_paris(6);
        let circuit = ghz(6);
        let token = CancelToken::new();
        for threads in [1usize, 4] {
            let engine = TrajectoryEngine::new(&device).with_threads(threads);
            let plain = engine
                .sample(&circuit, 900, &mut StdRng::seed_from_u64(3))
                .unwrap();
            let tried = engine
                .sample_with_cancel(&circuit, 900, &mut StdRng::seed_from_u64(3), &token)
                .unwrap();
            assert_eq!(plain, tried, "threads={threads}");
        }
    }

    #[test]
    fn pre_cancelled_sample_returns_cancelled() {
        let device = DeviceModel::ibm_paris(6);
        let engine = TrajectoryEngine::new(&device);
        let token = CancelToken::new();
        token.cancel();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            engine.sample_with_cancel(&ghz(6), 50_000, &mut rng, &token),
            Err(SimError::Cancelled)
        );
    }

    #[test]
    fn mid_flight_cancel_stops_sampling() {
        let device = DeviceModel::ibm_paris(10);
        let engine = TrajectoryEngine::new(&device).with_threads(2);
        let token = CancelToken::new();
        let watchdog = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                token.cancel();
            })
        };
        // A trial budget that would take far longer than 30 ms.
        let mut rng = StdRng::seed_from_u64(3);
        let got = engine.sample_with_cancel(&ghz(10), 50_000_000, &mut rng, &token);
        watchdog.join().unwrap();
        assert_eq!(got, Err(SimError::Cancelled));
    }

    #[test]
    fn noiseless_device_reproduces_ideal() {
        let device = DeviceModel::noiseless(3);
        let engine = TrajectoryEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = engine.sample(&ghz(3), 4000, &mut rng).unwrap();
        let dist = counts.to_distribution();
        // Only the two GHZ branches appear.
        assert_eq!(dist.len(), 2);
        let all0 = BitString::zeros(3);
        let all1 = BitString::ones(3);
        assert!((dist.prob(all0) - 0.5).abs() < 0.05);
        assert!((dist.prob(all1) - 0.5).abs() < 0.05);
    }

    #[test]
    fn noisy_device_produces_errors_clustered_near_correct() {
        let device = DeviceModel::ibm_paris(6);
        let engine = TrajectoryEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(2);
        let counts = engine.sample(&ghz(6), 6000, &mut rng).unwrap();
        let dist = counts.to_distribution();
        let correct = [BitString::zeros(6), BitString::ones(6)];
        let p = metrics::pst(&dist, &correct);
        // Noise pushes PST below 1 but the circuit is shallow enough to
        // stay mostly correct.
        assert!(p < 0.999, "expected some errors, pst = {p}");
        assert!(p > 0.5, "unexpectedly destructive noise, pst = {p}");
        // Hamming structure: EHD far below the uniform-error value n/2.
        let e = metrics::ehd(&dist, &correct);
        assert!(e < 1.0, "ehd {e} should be far below 3.0");
    }

    #[test]
    fn readout_bias_pulls_ones_toward_zeros() {
        // All-ones circuit on a device with strongly biased readout.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.x(q);
        }
        let coupling = crate::coupling::CouplingMap::full(4);
        let noise = crate::noise::NoiseModel::uniform(
            4,
            0.0,
            0.0,
            crate::noise::ReadoutError::new(0.0, 0.25),
        );
        let device = DeviceModel::new("biased", coupling, noise);
        let engine = TrajectoryEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(3);
        let counts = engine.sample(&c, 8000, &mut rng).unwrap();
        let dist = counts.to_distribution();
        // Expected weight = 4 × 0.75 = 3.
        let mean_weight = dist
            .iter()
            .map(|(x, p)| p * f64::from(x.weight()))
            .sum::<f64>();
        assert!((mean_weight - 3.0).abs() < 0.1, "mean weight {mean_weight}");
    }

    #[test]
    fn idle_noise_degrades_waiting_qubits() {
        // A circuit where qubit 1 idles for the whole schedule while
        // qubit 0 works; only idle noise is enabled.
        let mut c = Circuit::new(3);
        for _ in 0..10 {
            c.x(0).x(0);
        }
        c.x(2); // ideal outcome: bit 2 = 1
        let coupling = crate::coupling::CouplingMap::full(3);
        let noise =
            crate::noise::NoiseModel::uniform(3, 0.0, 0.0, crate::noise::ReadoutError::ideal())
                .with_idle_rate(0.02);
        let device = DeviceModel::new("idle-only", coupling, noise);
        let engine = TrajectoryEngine::new(&device);
        let mut rng = StdRng::seed_from_u64(41);
        let dist = engine.sample(&c, 8000, &mut rng).unwrap().to_distribution();
        // Qubit 1 never runs a gate: it idles for the full depth and
        // should flip far more often than the always-busy qubit 0.
        let p_q1_flipped: f64 = dist.iter().filter(|(x, _)| x.bit(1)).map(|(_, p)| p).sum();
        let p_q0_flipped: f64 = dist.iter().filter(|(x, _)| x.bit(0)).map(|(_, p)| p).sum();
        assert!(
            p_q1_flipped > 5.0 * p_q0_flipped.max(1e-4),
            "idle qubit flip rate {p_q1_flipped} vs busy {p_q0_flipped}"
        );
        assert!(p_q1_flipped > 0.05, "idle noise should be visible");
    }

    /// RNG-stream note: since the kernel-subsystem rewrite the engine
    /// derives one independent stream per trial from a single draw off
    /// the caller's generator, and idle periods consume one draw per
    /// *fault* (geometric skips) instead of one per idle *moment*. The
    /// sampled noise distribution is unchanged, but the concrete
    /// histogram for a given seed differs from the pre-rewrite engine —
    /// this test pins determinism (same seed ⇒ same counts), not any
    /// particular stream.
    #[test]
    fn deterministic_under_fixed_seed() {
        let device = DeviceModel::ibm_paris(4);
        let engine = TrajectoryEngine::new(&device);
        let a = engine
            .sample(&ghz(4), 500, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = engine
            .sample(&ghz(4), 500, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_counts() {
        let device = DeviceModel::ibm_paris(5);
        let circuit = ghz(5);
        let reference = TrajectoryEngine::new(&device)
            .with_threads(1)
            .sample(&circuit, 600, &mut StdRng::seed_from_u64(9))
            .unwrap();
        for threads in [2, 3, 7] {
            let got = TrajectoryEngine::new(&device)
                .with_threads(threads)
                .sample(&circuit, 600, &mut StdRng::seed_from_u64(9))
                .unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_rejected() {
        let device = DeviceModel::noiseless(2);
        let _ = TrajectoryEngine::new(&device).with_threads(0);
    }

    #[test]
    fn reference_and_fast_paths_agree_statistically() {
        let device = DeviceModel::ibm_paris(5);
        let engine = TrajectoryEngine::new(&device);
        let circuit = ghz(5);
        let fast = engine
            .sample(&circuit, 6000, &mut StdRng::seed_from_u64(17))
            .unwrap()
            .to_distribution();
        let slow = engine
            .sample_reference(&circuit, 6000, &mut StdRng::seed_from_u64(17))
            .unwrap()
            .to_distribution();
        let correct = [BitString::zeros(5), BitString::ones(5)];
        let pf = metrics::pst(&fast, &correct);
        let ps = metrics::pst(&slow, &correct);
        assert!((pf - ps).abs() < 0.05, "fast {pf} vs reference {ps}");
    }
}
