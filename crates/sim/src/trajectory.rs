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
//! trial. Under the default [`SimTuning`] it:
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
//! The single-draw discipline is shared with
//! [`crate::StabilizerEngine`]: both engines derive the same per-trial
//! streams, sample the same fault configurations through the shared
//! [`FaultPlan`], and map the same uniform draw onto the same ranked
//! support element — which is why a fixed seed yields *identical*
//! counts from either engine on Clifford circuits (the
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
use rand::{Rng, RngCore, SeedableRng};

use crate::circuit::Circuit;
use crate::device::DeviceModel;
use crate::engine::NoiseEngine;
use crate::error::SimError;
use crate::gates::{Gate, GateQubits};
use crate::noise::{NoiseModel, Pauli, PauliFault};
use crate::sampler::{AliasSampler, CdfSampler};
use crate::simkernel::SimTuning;
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
    tuning: SimTuning,
}

impl<'a> TrajectoryEngine<'a> {
    /// Creates an engine bound to a device model, with the default
    /// [`SimTuning`] (specialized kernels, checkpointing, all cores).
    #[must_use]
    pub fn new(device: &'a DeviceModel) -> Self {
        Self {
            device,
            tuning: SimTuning::default(),
        }
    }

    /// Replaces the performance tuning (kernel tier, checkpointing,
    /// worker threads). Results are unaffected: a fixed seed yields the
    /// same [`Counts`] under every tuning with the same fault-sampling
    /// strategy.
    #[must_use]
    pub fn with_tuning(mut self, tuning: SimTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The engine's current tuning.
    #[must_use]
    pub fn tuning(&self) -> &SimTuning {
        &self.tuning
    }

    /// The device this engine executes on.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        self.device
    }

    fn validate(&self, circuit: &Circuit, trials: u64) -> Result<(), SimError> {
        if trials == 0 {
            return Err(SimError::ZeroTrials);
        }
        if circuit.num_qubits() > self.device.num_qubits() {
            return Err(SimError::CircuitTooWide {
                circuit: circuit.num_qubits(),
                device: self.device.num_qubits(),
            });
        }
        if circuit.num_qubits() > MAX_DENSE_QUBITS {
            return Err(SimError::TooManyQubitsForDense(circuit.num_qubits()));
        }
        Ok(())
    }

    /// Executes `circuit` for `trials` trials.
    ///
    /// Draws one `u64` from `rng` to derive an independent,
    /// deterministic RNG stream per trial; everything after that is a
    /// pure function of the per-trial streams, so the returned
    /// histogram is identical at any [`SimTuning::threads`] setting.
    ///
    /// # Errors
    ///
    /// See [`NoiseEngine::sample_counts`].
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
        self.validate(circuit, trials)?;
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::Cancelled);
        }
        let n = circuit.num_qubits();
        let noise = self.device.noise();

        let workers = trial_workers(self.tuning.threads, trials);
        let ctx = TrialContext::new(circuit, noise, &self.tuning, workers);
        let base_seed = rng.next_u64();
        run_trial_blocks(n, workers, trials, |range| {
            run_trial_block(&ctx, base_seed, range, cancel)
        })
        .map_err(|Cancelled| SimError::Cancelled)
    }

    /// The pre-kernel-subsystem sampling loop, kept verbatim: generic
    /// scalar gate kernels, a fresh full-circuit re-simulation per
    /// faulty trial, one Bernoulli draw per idle moment, and a dense
    /// probability vector for the ideal sampler. This is the `repro
    /// bench-sim` baseline and the statistical cross-check for the fast
    /// path.
    ///
    /// # Errors
    ///
    /// See [`NoiseEngine::sample_counts`].
    pub fn sample_reference<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        trials: u64,
        rng: &mut R,
    ) -> Result<Counts, SimError> {
        self.validate(circuit, trials)?;
        let n = circuit.num_qubits();
        let noise = self.device.noise();
        let reference = SimTuning::reference();

        // Fault probability per gate location.
        let gate_ps: Vec<f64> = circuit
            .gates()
            .iter()
            .map(|g| match g.qubits() {
                GateQubits::One(q) => noise.p1_for(q),
                GateQubits::Two(a, b) => noise.p2_for(a, b),
            })
            .collect();

        // Ideal final state, reused by every fault-free trial.
        let ideal = StateVector::from_circuit_with(circuit, &reference);
        let ideal_sampler = AliasSampler::new(&ideal.probabilities()).expect("normalized state");

        // Idle periods only matter when the model has an idle rate.
        let idle_rate = noise.idle();
        let (idle_before, idle_trailing) = if idle_rate > 0.0 {
            circuit.idle_periods()
        } else {
            (Vec::new(), Vec::new())
        };

        let mut counts = Counts::new(n).expect("validated width");
        let mut faults: Vec<TrialFault> = Vec::new();
        for _ in 0..trials {
            faults.clear();
            for (i, (&p, g)) in gate_ps.iter().zip(circuit.gates()).enumerate() {
                // Decoherence while waiting for this gate's operands.
                if idle_rate > 0.0 {
                    for &(q, moments) in &idle_before[i] {
                        for _ in 0..moments {
                            if rng.gen::<f64>() < idle_rate {
                                faults.push(TrialFault::BeforeGate {
                                    idx: i,
                                    qubit: q,
                                    pauli: Pauli::random(rng),
                                });
                            }
                        }
                    }
                }
                if p > 0.0 && rng.gen::<f64>() < p {
                    let fault = if g.is_two_qubit() {
                        PauliFault::random_double(rng)
                    } else {
                        PauliFault::random_single(rng)
                    };
                    faults.push(TrialFault::AfterGate { idx: i, fault });
                }
            }
            if idle_rate > 0.0 {
                for (q, &moments) in idle_trailing.iter().enumerate() {
                    for _ in 0..moments {
                        if rng.gen::<f64>() < idle_rate {
                            faults.push(TrialFault::End {
                                qubit: q,
                                pauli: Pauli::random(rng),
                            });
                        }
                    }
                }
            }
            let outcome = if faults.is_empty() {
                BitString::new(ideal_sampler.sample(rng) as u64, n)
            } else {
                let mut sv = StateVector::new(n);
                evolve_with_faults(&mut sv, circuit, &faults, 0, &reference);
                sv.sample(rng)
            };
            counts.record(noise.apply_readout(outcome, rng));
        }
        Ok(counts)
    }
}

/// The per-location fault model of one circuit on one device: where
/// faults can strike and how likely they are. Shared verbatim between
/// [`TrajectoryEngine`] and [`crate::StabilizerEngine`] so the two
/// engines draw **identical** fault configurations from identical
/// per-trial RNG streams — the foundation of their exact-counts
/// agreement on Clifford circuits.
pub(crate) struct FaultPlan {
    /// Fault probability per gate location.
    gate_ps: Vec<f64>,
    /// Whether the gate at each location is two-qubit (a two-qubit
    /// depolarizing fault draws from 15 Paulis instead of 3).
    two_qubit: Vec<bool>,
    /// Per-gate `(qubit, idle_moments)` waits (empty without idle noise).
    idle_before: Vec<Vec<(usize, usize)>>,
    /// Trailing idle moments per qubit before measurement.
    idle_trailing: Vec<usize>,
    idle_rate: f64,
}

impl FaultPlan {
    pub(crate) fn new(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let gate_ps = circuit
            .gates()
            .iter()
            .map(|g| match g.qubits() {
                GateQubits::One(q) => noise.p1_for(q),
                GateQubits::Two(a, b) => noise.p2_for(a, b),
            })
            .collect();
        let two_qubit = circuit.gates().iter().map(Gate::is_two_qubit).collect();
        let idle_rate = noise.idle();
        let (idle_before, idle_trailing) = if idle_rate > 0.0 {
            circuit.idle_periods()
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            gate_ps,
            two_qubit,
            idle_before,
            idle_trailing,
            idle_rate,
        }
    }

    /// Samples one trial's fault configuration into `faults`, ordered by
    /// gate index with `End` faults last.
    ///
    /// Idle periods draw a single geometric/binomial sample per period
    /// (one RNG draw per *fault* plus one, instead of one per idle
    /// *moment*), which is the distribution-preserving replacement for
    /// the old per-moment Bernoulli loop — see the RNG-stream note on
    /// the seeded-determinism test.
    pub(crate) fn sample_faults(&self, faults: &mut Vec<TrialFault>, rng: &mut StdRng) {
        for (i, (&p, &two)) in self.gate_ps.iter().zip(&self.two_qubit).enumerate() {
            if self.idle_rate > 0.0 {
                for &(q, moments) in &self.idle_before[i] {
                    for_each_geometric_hit(rng, moments, self.idle_rate, |rng| {
                        faults.push(TrialFault::BeforeGate {
                            idx: i,
                            qubit: q,
                            pauli: Pauli::random(rng),
                        });
                    });
                }
            }
            if p > 0.0 && rng.gen::<f64>() < p {
                let fault = if two {
                    PauliFault::random_double(rng)
                } else {
                    PauliFault::random_single(rng)
                };
                faults.push(TrialFault::AfterGate { idx: i, fault });
            }
        }
        if self.idle_rate > 0.0 {
            for (q, &moments) in self.idle_trailing.iter().enumerate() {
                for_each_geometric_hit(rng, moments, self.idle_rate, |rng| {
                    faults.push(TrialFault::End {
                        qubit: q,
                        pauli: Pauli::random(rng),
                    });
                });
            }
        }
    }
}

/// Everything a trial worker needs, assembled once per `sample` call
/// and borrowed by every trial block.
struct TrialContext<'c> {
    circuit: &'c Circuit,
    noise: &'c NoiseModel,
    /// Checkpointing toggle for the trial workers (from the engine's
    /// tuning).
    checkpoint: bool,
    /// The tuning trial workers evolve states with. When the trial
    /// budget is already split across multiple workers, per-gate
    /// threading is disabled here (threshold pushed to `usize::MAX`) —
    /// the trial-level split saturates the cores, and nesting another
    /// `threads`-way fan-out per gate per worker would only pay
    /// spawn/join cost.
    evolve_tuning: SimTuning,
    /// Where faults strike and how likely (shared with the stabilizer
    /// engine).
    faults: FaultPlan,
    /// Ideal output sampler for fault-free trials, streamed straight
    /// from the final amplitudes (no dense probability vector). One
    /// uniform draw per sample, mapped onto the support in ascending
    /// basis order — the discipline the stabilizer engine mirrors.
    ideal_sampler: CdfSampler,
    /// Length of the shortest gate prefix whose suffix is entirely
    /// diagonal. Diagonal gates commute with Z-basis measurement, so
    /// trajectories stop evolving here; faults in the diagonal tail
    /// reduce to an outcome bit-flip mask, and trials whose *first*
    /// fault lands in the tail skip state evolution entirely (ideal
    /// sample XOR mask).
    meas_cut: usize,
}

impl<'c> TrialContext<'c> {
    fn new(
        circuit: &'c Circuit,
        noise: &'c NoiseModel,
        tuning: &SimTuning,
        workers: usize,
    ) -> Self {
        let ideal = StateVector::from_circuit_with(circuit, tuning);
        let ideal_sampler =
            CdfSampler::from_weights_iter(ideal.amplitudes().iter().map(|a| a.norm_sqr()))
                .expect("normalized state");
        let gates = circuit.gates();
        let meas_cut = gates.len() - gates.iter().rev().take_while(|g| g.is_diagonal()).count();
        let evolve_tuning = if workers > 1 {
            SimTuning {
                gate_parallel_threshold: usize::MAX,
                ..*tuning
            }
        } else {
            *tuning
        };
        Self {
            circuit,
            noise,
            checkpoint: tuning.checkpoint,
            evolve_tuning,
            faults: FaultPlan::new(circuit, noise),
            ideal_sampler,
            meas_cut,
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

/// Number of trial workers a sampling call actually spawns: the
/// configured thread count, but never more than one worker per trial.
pub(crate) fn trial_workers(threads: usize, trials: u64) -> usize {
    (threads.max(1) as u64).min(trials) as usize
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
            let fork = match scratch_faults[0] {
                TrialFault::BeforeGate { idx, .. } | TrialFault::AfterGate { idx, .. } => idx,
                TrialFault::End { .. } => gate_count,
            };
            faulty.push(FaultyTrial {
                fork,
                faults: std::mem::take(&mut scratch_faults),
                rng,
            });
        }
    }

    // Phase B: faulty-trial simulation.
    let checkpoint = ctx.checkpoint;
    if checkpoint {
        // Sort by fork point so the shared prefix only ever advances.
        faulty.sort_by_key(|f| f.fork);
    }
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
        if trial.fork >= ctx.meas_cut {
            let mask = tail_flip_mask(ctx.circuit, &trial.faults, 0) as u64;
            let raw = ctx.ideal_sampler.sample(&mut trial.rng) as u64 ^ mask;
            let outcome = BitString::new(raw, n);
            counts.record(ctx.noise.apply_readout(outcome, &mut trial.rng));
            continue;
        }
        let fork = if checkpoint { trial.fork } else { 0 };
        if checkpoint {
            for &g in &ctx.circuit.gates()[prefix_len..fork] {
                prefix.apply_gate_with(g, &ctx.evolve_tuning);
            }
            prefix_len = fork;
            scratch.copy_from(&prefix);
        } else {
            scratch.reset();
        }
        let mask = evolve_window_masked(
            &mut scratch,
            ctx.circuit,
            &trial.faults,
            fork,
            ctx.meas_cut,
            &ctx.evolve_tuning,
        );
        let raw = scratch.sample(&mut trial.rng).as_u64() ^ mask;
        let outcome = BitString::new(raw, n);
        counts.record(ctx.noise.apply_readout(outcome, &mut trial.rng));
    }
    Ok(counts)
}

/// Calls `hit` once per fault in an idle period of `moments` slots with
/// per-moment fault probability `rate`, skipping fault-free moments
/// with geometric jumps: `floor(ln(1−u) / ln(1−rate))` failures precede
/// each success, so the total count is exactly `Binomial(moments,
/// rate)`-distributed at a cost of one uniform draw per fault plus one.
fn for_each_geometric_hit<R, F>(rng: &mut R, moments: usize, rate: f64, mut hit: F)
where
    R: Rng + ?Sized,
    F: FnMut(&mut R),
{
    if moments == 0 || rate <= 0.0 {
        return;
    }
    if rate >= 1.0 {
        for _ in 0..moments {
            hit(rng);
        }
        return;
    }
    let denom = (1.0 - rate).ln();
    let mut pos = 0usize;
    loop {
        let u: f64 = rng.gen();
        // (1 − u) ∈ (0, 1]: the ratio is a finite non-negative float;
        // the saturating `as` cast handles the enormous-skip tail.
        let skip = ((1.0 - u).ln() / denom) as usize;
        match pos.checked_add(skip) {
            Some(p) if p < moments => {
                hit(rng);
                pos = p + 1;
            }
            _ => break,
        }
    }
}

/// Evolves `sv` through `circuit.gates()[start..meas_cut]` with the
/// given faults injected at their recorded positions, and returns the
/// measurement bit-flip mask of every fault at or beyond `meas_cut`.
///
/// Gates past `meas_cut` are diagonal, so they never change the
/// measurement distribution; a Pauli fault landing among them only
/// matters through its bit-flip action (X/Y) on the sampled outcome.
/// `faults` must be ordered by gate index with `End` faults last and
/// contain no fault site before `start`.
fn evolve_window_masked(
    sv: &mut StateVector,
    circuit: &Circuit,
    faults: &[TrialFault],
    start: usize,
    meas_cut: usize,
    tuning: &SimTuning,
) -> u64 {
    let mut next = 0usize;
    for (gi, &g) in circuit.gates()[..meas_cut].iter().enumerate().skip(start) {
        while next < faults.len() {
            match faults[next] {
                TrialFault::BeforeGate { idx, qubit, pauli } if idx == gi => {
                    sv.apply_gate_with(pauli_gate(pauli, qubit), tuning);
                    next += 1;
                }
                _ => break,
            }
        }
        sv.apply_gate_with(g, tuning);
        while next < faults.len() {
            match faults[next] {
                TrialFault::AfterGate { idx, fault } if idx == gi => {
                    let (qa, qb) = match g.qubits() {
                        GateQubits::One(a) => (a, None),
                        GateQubits::Two(a, b) => (a, Some(b)),
                    };
                    if let Some(p) = fault.first {
                        sv.apply_gate_with(pauli_gate(p, qa), tuning);
                    }
                    if let (Some(p), Some(b)) = (fault.second, qb) {
                        sv.apply_gate_with(pauli_gate(p, b), tuning);
                    }
                    next += 1;
                }
                _ => break,
            }
        }
    }
    // Dense registers cap at MAX_DENSE_QUBITS, far inside u64.
    tail_flip_mask(circuit, faults, next) as u64
}

/// The measurement bit-flip mask of the faults `faults[from..]`, all of
/// which sit in the diagonal tail (or after the last gate): X and Y
/// flip their qubit's outcome bit, Z leaves it unchanged. Shared with
/// the stabilizer engine (whose registers run past 64 bits — dense
/// callers truncate to their `u64` width).
pub(crate) fn tail_flip_mask(circuit: &Circuit, faults: &[TrialFault], from: usize) -> u128 {
    let mut mask = 0u128;
    let mut flip = |pauli: Pauli, qubit: usize| {
        if pauli.flips_measurement() {
            mask ^= 1u128 << qubit;
        }
    };
    for f in &faults[from..] {
        match *f {
            TrialFault::BeforeGate { qubit, pauli, .. } | TrialFault::End { qubit, pauli } => {
                flip(pauli, qubit);
            }
            TrialFault::AfterGate { idx, fault } => {
                let (qa, qb) = match circuit.gates()[idx].qubits() {
                    GateQubits::One(a) => (a, None),
                    GateQubits::Two(a, b) => (a, Some(b)),
                };
                if let Some(p) = fault.first {
                    flip(p, qa);
                }
                if let (Some(p), Some(b)) = (fault.second, qb) {
                    flip(p, b);
                }
            }
        }
    }
    mask
}

/// Evolves `sv` through `circuit.gates()[start..]` with the given
/// faults injected at their recorded positions (idle faults before
/// their gate, gate faults after, end faults before measurement) —
/// the original full-evolution loop, kept verbatim for
/// [`TrajectoryEngine::sample_reference`]. `faults` must be ordered by
/// gate index with `End` faults last.
fn evolve_with_faults(
    sv: &mut StateVector,
    circuit: &Circuit,
    faults: &[TrialFault],
    start: usize,
    tuning: &SimTuning,
) {
    let mut next = 0usize;
    for (gi, &g) in circuit.gates().iter().enumerate().skip(start) {
        while next < faults.len() {
            match faults[next] {
                TrialFault::BeforeGate { idx, qubit, pauli } if idx == gi => {
                    sv.apply_gate_with(pauli_gate(pauli, qubit), tuning);
                    next += 1;
                }
                _ => break,
            }
        }
        sv.apply_gate_with(g, tuning);
        while next < faults.len() {
            match faults[next] {
                TrialFault::AfterGate { idx, fault } if idx == gi => {
                    let (qa, qb) = match g.qubits() {
                        GateQubits::One(a) => (a, None),
                        GateQubits::Two(a, b) => (a, Some(b)),
                    };
                    if let Some(p) = fault.first {
                        sv.apply_gate_with(pauli_gate(p, qa), tuning);
                    }
                    if let (Some(p), Some(b)) = (fault.second, qb) {
                        sv.apply_gate_with(pauli_gate(p, b), tuning);
                    }
                    next += 1;
                }
                _ => break,
            }
        }
    }
    for f in &faults[next..] {
        if let TrialFault::End { qubit, pauli } = *f {
            sv.apply_gate_with(pauli_gate(pauli, qubit), tuning);
        }
    }
}

/// One fault event within a trial. Shared with the stabilizer engine,
/// which realizes the same events as Pauli-frame updates instead of
/// state-vector gate applications.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TrialFault {
    /// Idle-decoherence fault on `qubit` just before gate `idx`.
    BeforeGate {
        idx: usize,
        qubit: usize,
        pauli: Pauli,
    },
    /// Depolarizing fault on the operands of gate `idx`.
    AfterGate { idx: usize, fault: PauliFault },
    /// Idle fault after a qubit's last gate, before measurement.
    End { qubit: usize, pauli: Pauli },
}

/// The gate realizing a Pauli error on qubit `q`.
fn pauli_gate(p: Pauli, q: usize) -> Gate {
    match p {
        Pauli::X => Gate::X(q),
        Pauli::Y => Gate::Y(q),
        Pauli::Z => Gate::Z(q),
    }
}

impl NoiseEngine for TrajectoryEngine<'_> {
    fn engine_name(&self) -> &'static str {
        "trajectory"
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
            let engine = TrajectoryEngine::new(&device)
                .with_tuning(SimTuning::default().with_threads(threads));
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
        let engine =
            TrajectoryEngine::new(&device).with_tuning(SimTuning::default().with_threads(2));
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
            .with_tuning(SimTuning::default().with_threads(1))
            .sample(&circuit, 600, &mut StdRng::seed_from_u64(9))
            .unwrap();
        for threads in [2, 3, 7] {
            let got = TrajectoryEngine::new(&device)
                .with_tuning(SimTuning::default().with_threads(threads))
                .sample(&circuit, 600, &mut StdRng::seed_from_u64(9))
                .unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn checkpointing_does_not_change_counts() {
        let device = DeviceModel::ibm_paris(4);
        let circuit = ghz(4);
        let mut no_ckpt = SimTuning::serial();
        no_ckpt.checkpoint = false;
        let a = TrajectoryEngine::new(&device)
            .with_tuning(SimTuning::serial())
            .sample(&circuit, 800, &mut StdRng::seed_from_u64(13))
            .unwrap();
        let b = TrajectoryEngine::new(&device)
            .with_tuning(no_ckpt)
            .sample(&circuit, 800, &mut StdRng::seed_from_u64(13))
            .unwrap();
        assert_eq!(a, b);
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

    #[test]
    fn trait_object_usable() {
        let device = DeviceModel::ibm_paris(3);
        let engine = TrajectoryEngine::new(&device);
        let dynamic: &dyn NoiseEngine = &engine;
        let mut rng = StdRng::seed_from_u64(8);
        let d = dynamic.noisy_distribution(&ghz(3), 256, &mut rng).unwrap();
        assert!((d.total_mass() - 1.0).abs() < 1e-9);
        assert_eq!(dynamic.engine_name(), "trajectory");
    }
}
