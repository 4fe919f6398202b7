//! The end-to-end QAOA experiment runner: build circuit → route onto the
//! device → execute noisily on [`PropagationEngine`] → (optionally)
//! post-process → score.

use hammer_circuits::qaoa_maxcut;
use hammer_core::{Hammer, HammerConfig};
use hammer_dist::{BitString, Distribution};
use hammer_graphs::MaxCut;
use hammer_sim::{
    simulate_ideal, transpile, DeviceModel, PropagationEngine, ReadoutMitigator, SimError,
};
use rand::RngCore;

use crate::expectation;
use crate::params::QaoaParams;

/// The post-processing applied to the measured distribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PostProcess {
    /// No correction: the paper's IBM baseline.
    #[default]
    Baseline,
    /// Tensored readout correction: the paper's *Google* baseline
    /// ("post-measurement correction scheme to reduce readout bias").
    ReadoutMitigation,
    /// HAMMER on the raw distribution.
    Hammer(HammerConfig),
    /// Readout correction first, then HAMMER — how the paper applies
    /// HAMMER to the Google dataset.
    MitigationThenHammer(HammerConfig),
}

/// The scored result of one QAOA execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaOutcome {
    /// The (post-processed) logical output distribution.
    pub distribution: Distribution,
    /// Expected Ising cost `C_exp`.
    pub c_exp: f64,
    /// Cost Ratio `C_exp / C_min` (Eq. 5).
    pub cost_ratio: f64,
    /// Probability mass on exactly-optimal cuts.
    pub optimal_mass: f64,
}

/// Runs QAOA instances of one MaxCut problem on one simulated device.
///
/// # Example
///
/// ```
/// use hammer_graphs::{generators, MaxCut};
/// use hammer_qaoa::{QaoaParams, QaoaRunner};
/// use hammer_sim::DeviceModel;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = MaxCut::new(generators::ring(6));
/// let runner = QaoaRunner::new(problem, DeviceModel::ibm_paris(6)).trials(2048);
/// let params = QaoaParams::constant(1, 1.99, 2.72);
///
/// let ideal = runner.ideal(&params);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let noisy = runner.run(&params, &mut rng)?;
/// assert!(noisy.cost_ratio <= ideal.cost_ratio + 0.1); // noise hurts
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QaoaRunner {
    problem: MaxCut,
    device: DeviceModel,
    trials: u64,
    c_min: f64,
    optimal: Vec<BitString>,
}

impl QaoaRunner {
    /// Creates a runner; the problem's exact optimum is computed once by
    /// brute force (instances are ≤ 30 nodes).
    ///
    /// # Panics
    ///
    /// Panics if the device is narrower than the problem.
    #[must_use]
    pub fn new(problem: MaxCut, device: DeviceModel) -> Self {
        assert!(
            device.num_qubits() >= problem.num_vars(),
            "device of {} qubits cannot run a {}-node problem",
            device.num_qubits(),
            problem.num_vars()
        );
        let optimum = problem.brute_force();
        Self {
            problem,
            device,
            trials: 8192,
            c_min: optimum.c_min,
            optimal: optimum.optimal,
        }
    }

    /// Sets the trial (shot) count. IBM jobs default to 8K; Google used
    /// 25K.
    #[must_use]
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// The problem being solved.
    #[must_use]
    pub fn problem(&self) -> &MaxCut {
        &self.problem
    }

    /// The device executing the circuits.
    #[must_use]
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The exact optimal cost `C_min`.
    #[must_use]
    pub fn c_min(&self) -> f64 {
        self.c_min
    }

    /// The exact optimal cuts.
    #[must_use]
    pub fn optimal_cuts(&self) -> &[BitString] {
        &self.optimal
    }

    /// Scores a distribution against this problem.
    #[must_use]
    pub fn score(&self, dist: &Distribution) -> QaoaOutcome {
        QaoaOutcome {
            c_exp: expectation::expected_cost(dist, &self.problem),
            cost_ratio: expectation::cost_ratio(dist, &self.problem, self.c_min),
            optimal_mass: expectation::optimal_mass(dist, &self.problem, self.c_min),
            distribution: dist.clone(),
        }
    }

    /// Noise-free execution (ideal statevector).
    #[must_use]
    pub fn ideal(&self, params: &QaoaParams) -> QaoaOutcome {
        let circuit = qaoa_maxcut(self.problem.graph(), params.layers());
        self.score(&simulate_ideal(&circuit))
    }

    /// Noisy execution with no post-processing (the baseline).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from routing or execution.
    pub fn run(&self, params: &QaoaParams, rng: &mut dyn RngCore) -> Result<QaoaOutcome, SimError> {
        self.run_with(params, &PostProcess::Baseline, rng)
    }

    /// Noisy execution followed by the chosen post-processing.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from routing or execution.
    pub fn run_with(
        &self,
        params: &QaoaParams,
        post: &PostProcess,
        rng: &mut dyn RngCore,
    ) -> Result<QaoaOutcome, SimError> {
        Ok(self
            .run_multi(params, std::slice::from_ref(post), rng)?
            .pop()
            .expect("one post-processor yields one outcome"))
    }

    /// Executes the circuit **once** and scores it under several
    /// post-processing pipelines — the cheap way to compare a baseline
    /// against HAMMER on identical trial data, exactly like
    /// post-processing one hardware job two ways.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from routing or execution.
    pub fn run_multi(
        &self,
        params: &QaoaParams,
        posts: &[PostProcess],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<QaoaOutcome>, SimError> {
        let circuit = qaoa_maxcut(self.problem.graph(), params.layers());

        // Execute on the physical register once; mitigation also runs at
        // physical width, before projection to logical outcomes.
        let routed = transpile(&circuit, self.device.coupling())?;
        let physical = PropagationEngine::new(&self.device)
            .sample(routed.circuit(), self.trials, rng)?
            .to_distribution();
        let to_logical = |d: &Distribution| routed.logical_distribution(d);

        // Lazily computed shared intermediates.
        let mut mitigated: Option<Distribution> = None;
        let mut mitigate = |physical: &Distribution| -> Distribution {
            mitigated
                .get_or_insert_with(|| {
                    // Support-restricted correction: keeps N ≤ trials so
                    // the downstream O(N²) reconstruction stays tractable
                    // at 20 qubits (see ReadoutMitigator docs).
                    ReadoutMitigator::from_noise_model(self.device.noise())
                        .mitigate_onto_support(physical)
                        .expect("widths match and calibrations are non-singular")
                })
                .clone()
        };

        let outcomes = posts
            .iter()
            .map(|post| {
                let logical = match post {
                    PostProcess::Baseline => to_logical(&physical),
                    PostProcess::ReadoutMitigation => to_logical(&mitigate(&physical)),
                    PostProcess::Hammer(cfg) => {
                        Hammer::with_config(*cfg).reconstruct(&to_logical(&physical))
                    }
                    PostProcess::MitigationThenHammer(cfg) => {
                        Hammer::with_config(*cfg).reconstruct(&to_logical(&mitigate(&physical)))
                    }
                };
                self.score(&logical)
            })
            .collect();
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn runner() -> QaoaRunner {
        let problem = MaxCut::new(generators::ring(6));
        QaoaRunner::new(problem, DeviceModel::ibm_paris(6)).trials(2048)
    }

    fn good_params() -> QaoaParams {
        QaoaParams::constant(1, 1.99, 2.72)
    }

    #[test]
    fn ideal_outcome_beats_uniform() {
        let r = runner();
        let out = r.ideal(&good_params());
        assert!(out.cost_ratio > 0.2, "cr = {}", out.cost_ratio);
        assert!(out.c_exp < 0.0);
    }

    #[test]
    fn noise_degrades_cost_ratio() {
        let r = runner();
        let ideal = r.ideal(&good_params());
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = r.run(&good_params(), &mut rng).unwrap();
        assert!(
            noisy.cost_ratio < ideal.cost_ratio,
            "noisy {} vs ideal {}",
            noisy.cost_ratio,
            ideal.cost_ratio
        );
    }

    #[test]
    fn hammer_improves_cost_ratio() {
        let r = runner();
        let params = good_params();
        let mut rng = StdRng::seed_from_u64(7);
        let baseline = r.run(&params, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let hammered = r
            .run_with(
                &params,
                &PostProcess::Hammer(HammerConfig::paper()),
                &mut rng,
            )
            .unwrap();
        assert!(
            hammered.cost_ratio > baseline.cost_ratio,
            "hammer {} vs baseline {}",
            hammered.cost_ratio,
            baseline.cost_ratio
        );
    }

    #[test]
    fn mitigation_then_hammer_runs() {
        let r = runner();
        let mut rng = StdRng::seed_from_u64(9);
        let out = r
            .run_with(
                &good_params(),
                &PostProcess::MitigationThenHammer(HammerConfig::paper()),
                &mut rng,
            )
            .unwrap();
        assert!((out.distribution.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn score_components_consistent() {
        let r = runner();
        let out = r.ideal(&good_params());
        assert!((out.c_exp / r.c_min() - out.cost_ratio).abs() < 1e-12);
        assert!(out.optimal_mass >= 0.0 && out.optimal_mass <= 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot run")]
    fn device_too_small_rejected() {
        let problem = MaxCut::new(generators::ring(6));
        let _ = QaoaRunner::new(problem, DeviceModel::ibm_paris(4));
    }
}
