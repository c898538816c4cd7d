//! The node-breakdown estimator: a re-entrant [`dipe::EstimationSession`]
//! that rides the DIPE flow (warm-up, runs-test interval selection,
//! block-wise sampling) while folding every measured cycle's per-net
//! transition record into a [`NodeActivityAccumulator`], and stops on either
//! the scalar total-power criterion or the two-tier per-node policy.

use std::time::Instant;

use dipe::checkpoint::{SessionCheckpoint, CHECKPOINT_VERSION};
use dipe::estimate::{CycleBudget, Estimate, EstimationSession, Progress, SessionPhase};
use dipe::independence::{IndependenceSelection, IntervalSelector, SelectorStep};
use dipe::{Diagnostics, DipeConfig, DipeError, PowerEstimator, PowerSampler};
use netlist::Circuit;
use seqstats::{NodeStoppingDecision, NodeStoppingPolicy, PooledSampleState, StoppingCriterion};

use crate::accumulator::NodeActivityAccumulator;

/// What a breakdown session waits for before declaring the estimate done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ConvergenceTarget {
    /// Stop when the scalar total-power criterion of the [`DipeConfig`] is
    /// satisfied — the paper's stopping rule, with the per-net breakdown
    /// reported at whatever accuracy it reached by then.
    TotalPower,
    /// Stop when the per-node policy is satisfied: maximum relative error
    /// over the top-K (power-ranked) nets, absolute floor for the rest.
    NodeBreakdown,
}

/// A [`PowerEstimator`] producing spatial (per-net) power breakdowns.
///
/// The interval-selection phase is identical to DIPE — trial sequences are
/// *not* folded into the activity estimate, which is built exclusively from
/// the i.i.d. post-selection sample, so every per-net confidence interval
/// rests on the same independence argument as the paper's scalar estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownEstimator {
    node_policy: NodeStoppingPolicy,
    target: ConvergenceTarget,
}

impl BreakdownEstimator {
    /// Creates an estimator with the given per-node policy and target.
    pub fn new(node_policy: NodeStoppingPolicy, target: ConvergenceTarget) -> Self {
        BreakdownEstimator {
            node_policy,
            target,
        }
    }

    /// Per-node convergence with the default policy spec
    /// ([`NodeStoppingPolicy::default_spec`]).
    pub fn per_node() -> Self {
        BreakdownEstimator::new(
            NodeStoppingPolicy::default_spec(),
            ConvergenceTarget::NodeBreakdown,
        )
    }

    /// Total-power convergence (DIPE's stopping rule) with the breakdown
    /// reported as a by-product.
    pub fn total_power() -> Self {
        BreakdownEstimator::new(
            NodeStoppingPolicy::default_spec(),
            ConvergenceTarget::TotalPower,
        )
    }

    /// The per-node stopping policy.
    pub fn node_policy(&self) -> NodeStoppingPolicy {
        self.node_policy
    }

    /// The convergence target.
    pub fn target(&self) -> ConvergenceTarget {
        self.target
    }

    /// Reopens a session at a [checkpoint](dipe::checkpoint) captured from an
    /// earlier breakdown session. The inputs must be the ones the
    /// checkpointed session was started with; the resumed session continues
    /// the identical simulation sequence, so its final estimate *and per-net
    /// breakdown* match the uninterrupted run bit-for-bit (wall-clock
    /// diagnostics aside).
    ///
    /// # Errors
    ///
    /// * [`DipeError::InvalidCheckpoint`] on a version or estimator mismatch,
    ///   a missing or circuit-incompatible accumulator state, or sampler
    ///   state that does not fit `circuit`;
    /// * the usual [`DipeError::InvalidConfig`] /
    ///   [`DipeError::InputModelMismatch`] for unusable inputs.
    pub fn resume<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &dipe::input::InputModel,
        checkpoint: &SessionCheckpoint,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        checkpoint.validate_for(&self.name())?;
        let state =
            checkpoint
                .accumulator
                .as_ref()
                .ok_or_else(|| DipeError::InvalidCheckpoint {
                    message: "checkpoint carries no per-net accumulator state; it was not taken \
                          from a breakdown session"
                        .to_string(),
                })?;
        let accumulator = NodeActivityAccumulator::from_state(state, circuit.num_nets())
            .map_err(|message| DipeError::InvalidCheckpoint { message })?;
        let mut sampler = PowerSampler::new(circuit, config, input_model, 0)?;
        sampler.restore(&checkpoint.sampler)?;
        Ok(Box::new(BreakdownSession::resume_at(
            self.name(),
            config,
            sampler,
            self.node_policy,
            self.target,
            accumulator,
            checkpoint,
        )))
    }
}

impl PowerEstimator for BreakdownEstimator {
    fn name(&self) -> String {
        match self.target {
            ConvergenceTarget::TotalPower => "node breakdown (total-power stop)".to_string(),
            ConvergenceTarget::NodeBreakdown => format!(
                "node breakdown (top-{} per-node stop)",
                self.node_policy.top_k()
            ),
        }
    }

    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &dipe::input::InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::new(circuit, config, input_model, seed_offset)?;
        Ok(Box::new(BreakdownSession::new(
            self.name(),
            config,
            sampler,
            self.node_policy,
            self.target,
        )))
    }
}

enum State {
    Warmup {
        remaining: usize,
    },
    SelectInterval {
        selector: IntervalSelector,
    },
    Sampling {
        selection: IndependenceSelection,
        sample: Vec<f64>,
        last_total_rhw: Option<f64>,
        last_node: Option<NodeStoppingDecision>,
    },
    Done(Estimate),
    Failed(DipeError),
}

/// The running session behind [`BreakdownEstimator`]. Stepping it in any
/// budget increments produces exactly the same simulation sequence — and the
/// same estimate and breakdown — as running it to completion in one call.
pub struct BreakdownSession<'c> {
    name: String,
    config: DipeConfig,
    sampler: PowerSampler<'c>,
    criterion: Box<dyn StoppingCriterion>,
    node_policy: NodeStoppingPolicy,
    target: ConvergenceTarget,
    accumulator: NodeActivityAccumulator,
    /// Per-net load capacitances in farads, the ranking weight of the
    /// per-node policy (top-K by estimated *power*, not raw activity).
    capacitances_f: Vec<f64>,
    state: State,
    elapsed_seconds: f64,
    /// Snapshot taken at sampling entry — see
    /// [`EstimationSession::warm_checkpoint`].
    warm: Option<SessionCheckpoint>,
}

impl<'c> BreakdownSession<'c> {
    fn new(
        name: String,
        config: &DipeConfig,
        sampler: PowerSampler<'c>,
        node_policy: NodeStoppingPolicy,
        target: ConvergenceTarget,
    ) -> BreakdownSession<'c> {
        let accumulator = NodeActivityAccumulator::for_circuit(sampler.circuit());
        let capacitances_f = sampler.calculator().loads().as_slice().to_vec();
        BreakdownSession {
            name,
            criterion: config.build_criterion(),
            config: config.clone(),
            node_policy,
            target,
            accumulator,
            capacitances_f,
            sampler,
            state: State::Warmup {
                remaining: config.warmup_cycles,
            },
            elapsed_seconds: 0.0,
            warm: None,
        }
    }

    /// Rebuilds a session at a checkpoint's exact position, directly in the
    /// sampling phase. `sampler` must already be restored to the
    /// checkpoint's sampler state and `accumulator` to its moment sums.
    fn resume_at(
        name: String,
        config: &DipeConfig,
        sampler: PowerSampler<'c>,
        node_policy: NodeStoppingPolicy,
        target: ConvergenceTarget,
        accumulator: NodeActivityAccumulator,
        checkpoint: &SessionCheckpoint,
    ) -> BreakdownSession<'c> {
        let capacitances_f = sampler.calculator().loads().as_slice().to_vec();
        BreakdownSession {
            name,
            criterion: config.build_criterion(),
            config: config.clone(),
            node_policy,
            target,
            accumulator,
            capacitances_f,
            sampler,
            state: State::Sampling {
                selection: checkpoint.selection.clone(),
                sample: checkpoint.sample.to_values(),
                last_total_rhw: checkpoint.last_rhw(),
                // Re-established at the next block boundary; only progress
                // reporting between boundaries is affected, never the final
                // estimate (termination re-evaluates the policy anyway).
                last_node: None,
            },
            elapsed_seconds: checkpoint.elapsed_seconds,
            warm: checkpoint.is_warm().then(|| checkpoint.clone()),
        }
    }

    fn checkpoint_from(
        &self,
        selection: &IndependenceSelection,
        sample: &[f64],
        last_total_rhw: Option<f64>,
    ) -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            estimator: self.name.clone(),
            sampler: self.sampler.snapshot(),
            selection: selection.clone(),
            sample: PooledSampleState::from_values(sample),
            last_rhw_bits: last_total_rhw.map(f64::to_bits),
            elapsed_seconds: self.elapsed_seconds,
            accumulator: Some(self.accumulator.snapshot()),
        }
    }

    fn phase(&self) -> SessionPhase {
        match self.state {
            State::Warmup { .. } => SessionPhase::Warmup,
            State::SelectInterval { .. } => SessionPhase::IntervalSelection,
            _ => SessionPhase::Sampling,
        }
    }

    fn samples_collected(&self) -> usize {
        match &self.state {
            State::Sampling { sample, .. } => sample.len(),
            State::Done(estimate) => estimate.sample_size,
            _ => 0,
        }
    }

    fn current_rhw(&self) -> Option<f64> {
        match &self.state {
            State::Sampling {
                last_total_rhw,
                last_node,
                ..
            } => match self.target {
                ConvergenceTarget::TotalPower => *last_total_rhw,
                ConvergenceTarget::NodeBreakdown => {
                    last_node.as_ref().map(|d| d.worst_relative_half_width)
                }
            },
            State::Done(estimate) => estimate.relative_half_width,
            _ => None,
        }
    }

    /// Evaluates the per-node policy on the accumulator's current state,
    /// ranking nets by estimated power (capacitance-weighted activity).
    fn evaluate_node_policy(&self) -> NodeStoppingDecision {
        evaluate_node_policy(&self.accumulator, &self.capacitances_f, self.node_policy)
    }

    fn finish(
        &mut self,
        selection: IndependenceSelection,
        sample: Vec<f64>,
        total_rhw: f64,
        node_decision: NodeStoppingDecision,
        elapsed_seconds: f64,
    ) -> Estimate {
        let criterion = match self.target {
            ConvergenceTarget::TotalPower => self.criterion.name().to_string(),
            ConvergenceTarget::NodeBreakdown => node_criterion_label(self.node_policy),
        };
        let mut estimate = breakdown_estimate(BreakdownEstimateParts {
            name: self.name.clone(),
            circuit: self.sampler.circuit(),
            technology: self.sampler.calculator().technology(),
            loads: self.sampler.calculator().loads(),
            accumulator: &self.accumulator,
            sample,
            total_rhw,
            node_decision,
            selection,
            criterion,
            cycle_counts: self.sampler.cycle_counts(),
            elapsed_seconds,
        });
        estimate.sim_profile = Some(self.sampler.sim_profile());
        estimate
    }
}

/// Evaluates the two-tier per-node policy on an accumulator's current
/// state, ranking nets by estimated power (capacitance-weighted activity).
/// Shared by the single-threaded session and the sharded merger.
pub(crate) fn evaluate_node_policy(
    accumulator: &NodeActivityAccumulator,
    capacitances_f: &[f64],
    node_policy: NodeStoppingPolicy,
) -> NodeStoppingDecision {
    let means = accumulator.means();
    let std_errors = accumulator.std_errors();
    let weights: Vec<f64> = means
        .iter()
        .zip(capacitances_f)
        .map(|(&mean, &cap)| mean * cap)
        .collect();
    node_policy.evaluate(
        &means,
        &std_errors,
        &weights,
        accumulator.observations() as usize,
    )
}

/// The stopping-rule label of a node-targeted session.
pub(crate) fn node_criterion_label(node_policy: NodeStoppingPolicy) -> String {
    format!(
        "per-node top-{} (eps {}, confidence {}, floor {})",
        node_policy.top_k(),
        node_policy.relative_error(),
        node_policy.confidence(),
        node_policy.activity_floor()
    )
}

/// Everything needed to assemble a breakdown [`Estimate`] — shared by the
/// single-threaded session and the sharded runner so the reported record
/// can never diverge between the two paths.
pub(crate) struct BreakdownEstimateParts<'a> {
    pub name: String,
    pub circuit: &'a Circuit,
    pub technology: power::Technology,
    pub loads: &'a power::LoadCapacitances,
    pub accumulator: &'a NodeActivityAccumulator,
    pub sample: Vec<f64>,
    pub total_rhw: f64,
    pub node_decision: NodeStoppingDecision,
    pub selection: IndependenceSelection,
    pub criterion: String,
    pub cycle_counts: dipe::sampler::CycleCounts,
    pub elapsed_seconds: f64,
}

pub(crate) fn breakdown_estimate(parts: BreakdownEstimateParts<'_>) -> Estimate {
    let breakdown = power::PowerBreakdown::from_activity(
        parts.circuit,
        parts.technology,
        parts.loads,
        &parts.accumulator.means(),
        &parts.accumulator.std_errors(),
        &parts.accumulator.glitch_means(),
        parts.accumulator.observations(),
    );
    Estimate {
        estimator: parts.name,
        // As in the scalar sessions, the reported power is the sample
        // mean; by Eq. (1) it equals the breakdown's capacitance-weighted
        // activity total up to floating-point association.
        mean_power_w: seqstats::descriptive::mean(&parts.sample),
        relative_half_width: Some(parts.total_rhw),
        sample_size: parts.sample.len(),
        cycle_counts: parts.cycle_counts,
        elapsed_seconds: parts.elapsed_seconds,
        // Callers that own a sampler (or pooled shard summaries) attach the
        // profiling counters after assembly.
        sim_profile: None,
        diagnostics: Diagnostics::NodeBreakdown(Box::new(dipe::NodeBreakdownDiagnostics {
            selection: parts.selection,
            criterion: parts.criterion,
            breakdown,
            node_decision: parts.node_decision,
            sample: parts.sample,
        })),
    }
}

impl EstimationSession for BreakdownSession<'_> {
    fn estimator(&self) -> &str {
        &self.name
    }

    fn cycles_done(&self) -> u64 {
        self.sampler.cycle_counts().total()
    }

    fn step(&mut self, budget: CycleBudget) -> Result<Progress, DipeError> {
        match &self.state {
            State::Done(estimate) => return Ok(Progress::Done(estimate.clone())),
            State::Failed(error) => return Err(error.clone()),
            _ => {}
        }
        let step_start = Instant::now();
        let deadline = self.cycles_done().saturating_add(budget.get());

        loop {
            match &mut self.state {
                State::Warmup { remaining } => {
                    let allowed = deadline.saturating_sub(self.sampler.cycle_counts().total());
                    let chunk = (*remaining).min(allowed.min(usize::MAX as u64) as usize);
                    self.sampler.advance(chunk);
                    *remaining -= chunk;
                    if *remaining > 0 {
                        break;
                    }
                    self.state = State::SelectInterval {
                        selector: IntervalSelector::new(&self.config),
                    };
                }
                State::SelectInterval { selector } => {
                    match selector.advance(&mut self.sampler, deadline) {
                        Ok(SelectorStep::OutOfBudget) => break,
                        Ok(SelectorStep::Selected(selection)) => {
                            self.state = State::Sampling {
                                selection,
                                sample: Vec::with_capacity(self.config.min_samples.max(256)),
                                last_total_rhw: None,
                                last_node: None,
                            };
                            // Warm checkpoint at sampling entry: the
                            // accumulator is still empty, so this snapshot
                            // predates every accuracy-dependent decision.
                            if let State::Sampling { selection, .. } = &self.state {
                                self.warm = Some(self.checkpoint_from(selection, &[], None));
                            }
                        }
                        Err(error) => {
                            self.state = State::Failed(error.clone());
                            return Err(error);
                        }
                    }
                }
                State::Sampling { selection, .. } => {
                    let interval = selection.interval;
                    // Sample until a block boundary decides, or the deadline.
                    // Batches end at every block boundary and are sized so
                    // the step stops where a per-sample deadline check would.
                    let block_size = self.config.block_size;
                    let outcome = loop {
                        let State::Sampling {
                            sample,
                            last_total_rhw,
                            ..
                        } = &mut self.state
                        else {
                            unreachable!("sampling state is pinned for the loop");
                        };
                        let to_boundary = block_size - sample.len() % block_size;
                        let count = self.sampler.batch_size(interval, deadline, to_boundary);
                        if count == 0 {
                            break SamplingOutcome::OutOfBudget;
                        }
                        let accumulator = &mut self.accumulator;
                        sample.extend_from_slice(self.sampler.sample_batch_observing_w(
                            interval,
                            count,
                            |activity| accumulator.add_glitch_cycle(activity),
                        ));
                        if !sample.len().is_multiple_of(block_size) {
                            continue;
                        }
                        let total = self.criterion.evaluate(sample);
                        *last_total_rhw = Some(total.relative_half_width);
                        let samples = sample.len();
                        let node = self.evaluate_node_policy();
                        let State::Sampling { last_node, .. } = &mut self.state else {
                            unreachable!("sampling state is pinned for the loop");
                        };
                        *last_node = Some(node.clone());
                        let satisfied = match self.target {
                            ConvergenceTarget::TotalPower => total.satisfied,
                            ConvergenceTarget::NodeBreakdown => node.satisfied,
                        };
                        if satisfied {
                            break SamplingOutcome::Satisfied {
                                total_rhw: total.relative_half_width,
                                node,
                            };
                        }
                        if samples >= self.config.max_samples {
                            break SamplingOutcome::Exhausted {
                                samples,
                                achieved: match self.target {
                                    ConvergenceTarget::TotalPower => total.relative_half_width,
                                    ConvergenceTarget::NodeBreakdown => {
                                        node.worst_relative_half_width
                                    }
                                },
                            };
                        }
                    };
                    match outcome {
                        SamplingOutcome::OutOfBudget => break,
                        SamplingOutcome::Satisfied { total_rhw, node } => {
                            let State::Sampling {
                                selection, sample, ..
                            } = &mut self.state
                            else {
                                unreachable!("sampling state is pinned for the loop");
                            };
                            let selection = selection.clone();
                            let sample = std::mem::take(sample);
                            let elapsed = self.elapsed_seconds + step_start.elapsed().as_secs_f64();
                            let estimate = self.finish(selection, sample, total_rhw, node, elapsed);
                            self.state = State::Done(estimate.clone());
                            return Ok(Progress::Done(estimate));
                        }
                        SamplingOutcome::Exhausted { samples, achieved } => {
                            let error = DipeError::SampleBudgetExhausted {
                                samples,
                                achieved_relative_half_width: achieved,
                            };
                            self.state = State::Failed(error.clone());
                            return Err(error);
                        }
                    }
                }
                State::Done(_) | State::Failed(_) => unreachable!("handled at entry"),
            }
        }

        self.elapsed_seconds += step_start.elapsed().as_secs_f64();
        Ok(Progress::Running {
            cycles_done: self.cycles_done(),
            samples: self.samples_collected(),
            current_rhw: self.current_rhw(),
            phase: self.phase(),
        })
    }

    fn checkpoint(&self) -> Option<SessionCheckpoint> {
        match &self.state {
            State::Sampling {
                selection,
                sample,
                last_total_rhw,
                ..
            } => Some(self.checkpoint_from(selection, sample, *last_total_rhw)),
            _ => None,
        }
    }

    fn warm_checkpoint(&self) -> Option<SessionCheckpoint> {
        self.warm.clone()
    }
}

enum SamplingOutcome {
    OutOfBudget,
    Satisfied {
        total_rhw: f64,
        node: NodeStoppingDecision,
    },
    Exhausted {
        samples: usize,
        achieved: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dipe::estimate::run_to_completion;
    use dipe::input::InputModel;
    use dipe::Progress;
    use netlist::iscas89;

    fn relaxed_policy() -> NodeStoppingPolicy {
        NodeStoppingPolicy::new(0.15, 0.90, 5, 0.05, 64)
    }

    fn config() -> DipeConfig {
        DipeConfig::default().with_seed(11)
    }

    fn run(circuit: &Circuit, estimator: &BreakdownEstimator) -> Estimate {
        run_to_completion(
            estimator
                .start(circuit, &config(), &InputModel::uniform(), 0)
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn per_node_target_converges_on_s27() {
        let c = iscas89::load("s27").unwrap();
        let estimate = run(
            &c,
            &BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown),
        );
        let node = estimate
            .node_diagnostics()
            .unwrap_or_else(|| panic!("wrong diagnostics: {:?}", estimate.diagnostics));
        let (node_decision, breakdown) = (&node.node_decision, &node.breakdown);
        assert!(node_decision.satisfied);
        assert!(node_decision.relative_nets >= 1);
        assert_eq!(breakdown.per_net().len(), c.num_nets());
        assert_eq!(breakdown.observations() as usize, estimate.sample_size);
        // The breakdown total and the scalar power estimate are the same
        // number (Eq. 1 over the same measured cycles).
        let relative_gap =
            (breakdown.total_power_w() - estimate.mean_power_w).abs() / estimate.mean_power_w;
        assert!(relative_gap < 1e-9, "gap {relative_gap}");
    }

    #[test]
    fn total_power_target_matches_dipe_sampling_spec() {
        let c = iscas89::load("s298").unwrap();
        let estimate = run(
            &c,
            &BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::TotalPower),
        );
        assert!(estimate.relative_half_width.unwrap() < config().relative_error);
        assert!(estimate.breakdown().is_some());
        assert!(estimate.independence_interval().is_some());
    }

    #[test]
    fn stepping_granularity_does_not_change_the_result() {
        let c = iscas89::load("s27").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown);
        let blocking = run(&c, &estimator);
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let stepped = loop {
            match session.step(CycleBudget::cycles(777)).unwrap() {
                Progress::Running { .. } => {}
                Progress::Done(estimate) => break estimate,
            }
        };
        assert_eq!(blocking.mean_power_w, stepped.mean_power_w);
        assert_eq!(blocking.sample_size, stepped.sample_size);
        assert_eq!(blocking.cycle_counts, stepped.cycle_counts);
        assert_eq!(blocking.breakdown(), stepped.breakdown());
        // Done is sticky.
        assert!(matches!(
            session.step(CycleBudget::cycles(1)).unwrap(),
            Progress::Done(_)
        ));
    }

    #[test]
    fn checkpointed_breakdown_resumes_bit_for_bit() {
        let c = iscas89::load("s27").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown);
        let uninterrupted = run(&c, &estimator);

        // Kill a session mid-sampling; keep only its checkpoint.
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let checkpoint = loop {
            match session.step(CycleBudget::cycles(2_000)).unwrap() {
                Progress::Running { .. } => {
                    if let Some(cp) = session.checkpoint() {
                        if !cp.is_warm() {
                            break cp;
                        }
                    }
                }
                Progress::Done(_) => panic!("finished before a mid-sampling checkpoint"),
            }
        };
        assert!(checkpoint.accumulator.is_some());
        drop(session);

        let resumed = run_to_completion(
            estimator
                .resume(&c, &config(), &InputModel::uniform(), &checkpoint)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            resumed.mean_power_w.to_bits(),
            uninterrupted.mean_power_w.to_bits()
        );
        assert_eq!(resumed.sample_size, uninterrupted.sample_size);
        assert_eq!(resumed.cycle_counts, uninterrupted.cycle_counts);
        // The per-net breakdown — built from the restored integer moment
        // sums — is also identical, not merely close.
        assert_eq!(resumed.breakdown(), uninterrupted.breakdown());
    }

    #[test]
    fn resume_requires_accumulator_state() {
        let c = iscas89::load("s27").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::NodeBreakdown);
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let checkpoint = loop {
            if let Progress::Done(_) = session.step(CycleBudget::cycles(2_000)).unwrap() {
                panic!("finished early");
            }
            if let Some(cp) = session.checkpoint() {
                break cp;
            }
        };
        let mut stripped = checkpoint.clone();
        stripped.accumulator = None;
        assert!(matches!(
            estimator.resume(&c, &config(), &InputModel::uniform(), &stripped),
            Err(DipeError::InvalidCheckpoint { .. })
        ));
        // And a scalar DIPE estimator refuses a breakdown checkpoint.
        assert!(matches!(
            dipe::DipeEstimator::new().resume(&c, &config(), &InputModel::uniform(), &checkpoint),
            Err(DipeError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn accumulator_snapshot_round_trips_exactly() {
        let c = iscas89::load("s298").unwrap();
        let estimator = BreakdownEstimator::new(relaxed_policy(), ConvergenceTarget::TotalPower);
        let mut session = estimator
            .start(&c, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let checkpoint = loop {
            if let Progress::Done(_) = session.step(CycleBudget::cycles(500)).unwrap() {
                panic!("finished early");
            }
            if let Some(cp) = session.checkpoint() {
                if !cp.is_warm() {
                    break cp;
                }
            }
        };
        let state = checkpoint.accumulator.as_ref().unwrap();
        assert!(state.observations > 0, "mid-sampling accumulator is live");
        let restored = NodeActivityAccumulator::from_state(state, c.num_nets()).unwrap();
        assert_eq!(restored.snapshot(), *state);
        // Wrong net count is rejected.
        assert!(NodeActivityAccumulator::from_state(state, c.num_nets() + 1).is_err());
    }

    #[test]
    fn estimator_metadata() {
        let per_node = BreakdownEstimator::per_node();
        assert_eq!(per_node.target(), ConvergenceTarget::NodeBreakdown);
        assert!(per_node.name().contains("top-20"));
        let total = BreakdownEstimator::total_power();
        assert_eq!(total.target(), ConvergenceTarget::TotalPower);
        assert!(total.name().contains("total-power"));
        assert_eq!(per_node.node_policy().top_k(), 20);
    }

    #[test]
    fn impossible_node_spec_exhausts_the_sample_budget() {
        let c = iscas89::load("s27").unwrap();
        // A 1e-6 absolute floor on every quiet net cannot be met within a
        // 400-sample budget: the session must fail loudly, not loop.
        let estimator = BreakdownEstimator::new(
            NodeStoppingPolicy::new(0.05, 0.99, 3, 1e-6, 64),
            ConvergenceTarget::NodeBreakdown,
        );
        let config = config().with_sample_budget(64, 400);
        let result = run_to_completion(
            estimator
                .start(&c, &config, &InputModel::uniform(), 0)
                .unwrap(),
        );
        match result {
            // The budget check fires at the first block boundary at or past
            // the maximum, like the scalar sessions.
            Err(DipeError::SampleBudgetExhausted { samples, .. }) => assert!(samples >= 400),
            other => panic!("expected SampleBudgetExhausted, got {other:?}"),
        }
    }
}
