//! Sharded parallel estimation: one estimation run spread across cores.
//!
//! The paper's estimator is embarrassingly parallel in exactly one place:
//! samples separated by the accepted independence interval behave like
//! i.i.d. draws from the stationary per-cycle power distribution, so
//! *independent sampling chains* with disjoint RNG streams can be merged
//! without biasing the mean, the variance estimate, or the stopping rule.
//! [`ShardedDipeEstimator`] exploits this: the warm-up and the sequential
//! interval-selection procedure run once (they are cheap and inherently
//! serial — each trial depends on the previous rejection), then the
//! block-sampling phase fans out to N worker shards. Each shard owns its
//! own simulators and input stream ([`PowerSampler`]), seeded
//! deterministically from the run's seed and the shard index, warms its own
//! FSM up, and then draws sample blocks at the shared interval, pushing
//! them through a channel to a merger.
//!
//! The merger assembles *rounds* — one block from every shard, in shard
//! order — appends them to the pooled sample, runs the configured stopping
//! rule on the pool, and broadcasts a stop flag once it fires. Blocks a
//! shard produced beyond the deciding round are discarded, and cycle
//! accounting is derived from the *consumed* sample, so the result is a
//! pure function of `(circuit, config, input model, seed, shard count)`:
//! worker scheduling, thread interleaving and channel timing cannot change
//! a single bit of it. With one shard the pooled sample, the stopping
//! trace and the cycle counts are identical to the single-threaded
//! [`DipeSession`](crate::estimator::DipeEstimator) for the same seed;
//! with K shards the estimate differs statistically (different streams)
//! but is drawn from the same sampling design, so it stays valid for any
//! shard count.
//!
//! The fan-out machinery is generic over a per-shard [`ShardFold`], so
//! node-resolved estimators (the `activity` crate) can ride the same
//! runtime: each shard folds its measured cycles into its own per-block
//! accumulator, and the merger hands every round's accumulators to the
//! pooled decision in deterministic shard order (per-net integer sums make
//! the merge itself order-independent).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use logicsim::{GlitchActivity, LANES};
use netlist::Circuit;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::estimate::{
    CycleBudget, Estimate, EstimationSession, PowerEstimator, Progress, SessionPhase,
};
use crate::independence::{IndependenceSelection, IntervalSelector, SelectorStep};
use crate::input::InputModel;
use crate::sampler::{CycleCounts, PowerSampler};

/// How many rounds a shard may run ahead of the merger before it parks.
/// Bounds the channel backlog (and therefore memory) when shards progress
/// at different speeds without ever stalling the steady state. The remote
/// runtime ([`crate::remote`]) uses the same lead as its per-stream credit
/// so local and distributed runs speculate identically.
pub const MAX_LEAD_ROUNDS: u64 = 4;

/// How a shard's seed offset is derived: shard 0 continues the session's
/// own stream (bit-identity with the single-threaded run), every other
/// shard gets a splitmix64-mixed offset so the streams are disjoint for
/// any base seed and cannot collide with the small consecutive offsets
/// batch harnesses use.
pub fn shard_seed_offset(base_seed_offset: u64, shard: usize) -> u64 {
    if shard == 0 {
        return base_seed_offset;
    }
    base_seed_offset.wrapping_add(splitmix64(0x5AD5_C0DE_u64 ^ (shard as u64) << 1))
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A per-shard fold over the measured cycles of one sample block.
///
/// The total-power estimator uses the trivial [`NoFold`]; node-resolved
/// estimators supply a fold whose block is a per-net activity accumulator.
/// The fold value itself is shared read-only across shards.
pub trait ShardFold: Sync {
    /// The per-block payload a shard builds while sampling.
    type Block: Send;

    /// Creates an empty payload for the next block.
    fn new_block(&self) -> Self::Block;

    /// Folds one measured cycle's glitch-decomposed transition record into
    /// the block payload.
    fn observe(&self, block: &mut Self::Block, activity: &GlitchActivity);
}

/// The fold of plain total-power estimation: blocks carry no payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFold;

impl ShardFold for NoFold {
    type Block = ();

    fn new_block(&self) {}

    fn observe(&self, _block: &mut (), _activity: &GlitchActivity) {}
}

/// The pooled decision after one merged round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundVerdict {
    /// Keep sampling.
    Continue,
    /// The stopping rule fired; broadcast stop and finish.
    Satisfied,
    /// The sample budget is exhausted without satisfying the rule.
    Exhausted,
}

/// The outcome of a completed fan-out: the pooled sample (in deterministic
/// round-robin round order), the number of merged rounds, and the run's
/// profiling ledger. The sample and round count are pure functions of the
/// run inputs; the profiling fields are wall-clock facts (how far each
/// shard speculated past the deciding round depends on scheduling) and must
/// never feed back into the estimate.
#[derive(Debug)]
pub struct PooledSampling {
    /// The pooled power sample in merge order.
    pub sample: Vec<f64>,
    /// Complete rounds merged (each contributes `shards × block_size`
    /// samples).
    pub rounds: u64,
    /// Speculative blocks the shards produced beyond the deciding round and
    /// the merger discarded (scheduling-dependent; bounded by
    /// `shards × MAX_LEAD_ROUNDS`).
    pub discarded_blocks: u64,
    /// Simulator profiling counters summed over every shard's sampler,
    /// including the primary shard's pre-fanout warm-up and selection work
    /// (its simulators carry their counters into the fan-out).
    pub sim_profile: crate::estimate::SimProfile,
}

/// Runs the sharded block-sampling phase to completion.
///
/// `shard0` is the session's own sampler, carrying the post-selection
/// simulation state; shards `1..shards` get fresh samplers seeded via
/// [`shard_seed_offset`] and warm up independently. Every shard draws
/// blocks of `config.block_size` samples at `interval` decorrelation
/// cycles, folding measured cycles through `fold`. After each merged round
/// `decide` sees the pooled sample and the round's block payloads (shard
/// order) and returns the verdict; `Satisfied`/`Exhausted` broadcast stop.
///
/// `tracer` receives one `round_merged` event per merged round (from the
/// merger thread) and, once the fan-out has drained, a `shard_done` summary
/// per shard plus a `speculative_discard` total. Tracing never runs on the
/// worker threads' hot paths.
///
/// # Errors
///
/// Returns an error only if a shard sampler cannot be constructed (the
/// configuration and input model were already validated by the session, so
/// this is effectively unreachable).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_blocks<'c, F, D>(
    circuit: &'c Circuit,
    config: &DipeConfig,
    input_model: &InputModel,
    base_seed_offset: u64,
    shard0: PowerSampler<'c>,
    interval: usize,
    shards: usize,
    fold: &F,
    mut decide: D,
    tracer: &telemetry::Tracer,
) -> Result<PooledSampling, DipeError>
where
    F: ShardFold,
    D: FnMut(&[f64], Vec<F::Block>) -> RoundVerdict,
{
    assert!(shards >= 1, "at least one shard is required");
    let block_size = config.block_size;
    let warmup_cycles = config.warmup_cycles;

    // Build every shard's sampler up front so construction errors surface
    // before any thread is spawned.
    let mut samplers = Vec::with_capacity(shards);
    samplers.push(shard0);
    for shard in 1..shards {
        samplers.push(PowerSampler::new(
            circuit,
            config,
            input_model,
            shard_seed_offset(base_seed_offset, shard),
        )?);
    }

    let stop = AtomicBool::new(false);
    let consumed = (Mutex::new(0u64), Condvar::new());
    let (tx, rx) = mpsc::channel::<(usize, Vec<f64>, F::Block)>();
    // Exit summaries (blocks produced, cycle ledger, simulator counters):
    // one message per worker, collected after the scope joins them.
    type ShardSummary = (usize, u64, CycleCounts, crate::estimate::SimProfile);
    let (summary_tx, summary_rx) = mpsc::channel::<ShardSummary>();

    let pooled = std::thread::scope(|scope| {
        for (shard, mut sampler) in samplers.into_iter().enumerate() {
            let tx = tx.clone();
            let summary_tx = summary_tx.clone();
            let stop = &stop;
            let consumed = &consumed;
            scope.spawn(move || {
                if shard > 0 {
                    // A fresh shard must forget its reset state before its
                    // samples may join the stationary pool.
                    sampler.advance(warmup_cycles);
                }
                let mut produced = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Flow control: stay within MAX_LEAD_ROUNDS of the
                    // merger so a fast shard cannot grow the backlog
                    // unboundedly.
                    {
                        let (lock, condvar) = consumed;
                        let mut done = lock.lock().expect("merger never panics");
                        while produced >= *done + MAX_LEAD_ROUNDS && !stop.load(Ordering::Relaxed) {
                            let (guard, _) = condvar
                                .wait_timeout(done, Duration::from_millis(20))
                                .expect("merger never panics");
                            done = guard;
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut powers = Vec::with_capacity(block_size);
                    let mut payload = fold.new_block();
                    while powers.len() < block_size {
                        let count = (block_size - powers.len()).min(LANES);
                        powers.extend_from_slice(sampler.sample_batch_observing_w(
                            interval,
                            count,
                            |activity| fold.observe(&mut payload, activity),
                        ));
                    }
                    produced += 1;
                    if tx.send((shard, powers, payload)).is_err() {
                        break; // the merger is gone; nothing left to do
                    }
                }
                let _ = summary_tx.send((
                    shard,
                    produced,
                    sampler.cycle_counts(),
                    sampler.sim_profile(),
                ));
            });
        }
        drop(tx);
        drop(summary_tx);

        // The merger: assemble rounds in shard order, decide on the pool.
        let mut queues: Vec<VecDeque<(Vec<f64>, F::Block)>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        let mut sample = Vec::new();
        let mut rounds = 0u64;
        loop {
            if queues.iter().all(|queue| !queue.is_empty()) {
                let mut payloads = Vec::with_capacity(shards);
                for queue in queues.iter_mut() {
                    let (powers, payload) = queue.pop_front().expect("checked non-empty");
                    sample.extend_from_slice(&powers);
                    payloads.push(payload);
                }
                rounds += 1;
                {
                    let (lock, condvar) = &consumed;
                    *lock.lock().expect("workers never panic") = rounds;
                    condvar.notify_all();
                }
                tracer.emit("round_merged", |e| {
                    e.field_u64("round", rounds)
                        .field_u64("pooled_samples", sample.len() as u64)
                        .field_u64("shards", shards as u64);
                });
                match decide(&sample, payloads) {
                    RoundVerdict::Continue => continue,
                    RoundVerdict::Satisfied | RoundVerdict::Exhausted => break,
                }
            }
            let (shard, powers, payload) = rx
                .recv()
                .expect("workers only exit after the stop broadcast");
            queues[shard].push_back((powers, payload));
        }
        stop.store(true, Ordering::Relaxed);
        let (_, condvar) = &consumed;
        condvar.notify_all();
        // Drain without blocking so worker sends never back up while the
        // scope joins (the channel is unbounded, but be tidy).
        while rx.try_recv().is_ok() {}
        PooledSampling {
            sample,
            rounds,
            discarded_blocks: 0,
            sim_profile: crate::estimate::SimProfile::default(),
        }
    });

    // Fold the per-worker exit summaries (available once the scope has
    // joined every worker) into the profiling ledger, in shard order so the
    // trace is stable to read even though the counts themselves are
    // scheduling-dependent.
    let mut summaries: Vec<ShardSummary> = summary_rx.iter().collect();
    summaries.sort_by_key(|&(shard, ..)| shard);
    let mut pooled = pooled;
    let mut produced_total = 0u64;
    for (shard, produced, counts, profile) in &summaries {
        produced_total += produced;
        pooled.sim_profile.merge(profile);
        tracer.emit("shard_done", |e| {
            e.field_u64("shard", *shard as u64)
                .field_u64("blocks_produced", *produced)
                .field_u64("zero_delay_cycles", counts.zero_delay_cycles)
                .field_u64("measured_cycles", counts.measured_cycles);
        });
    }
    pooled.discarded_blocks = produced_total.saturating_sub(pooled.rounds * shards as u64);
    tracer.emit("speculative_discard", |e| {
        e.field_u64("blocks", pooled.discarded_blocks)
            .field_u64("rounds_consumed", pooled.rounds);
    });

    Ok(pooled)
}

/// Deterministic cycle accounting of a finished sharded run: the warm-up
/// and selection cycles of the primary shard, the warm-ups of the extra
/// shards, and `interval + 1` cycles for every *consumed* pooled sample.
/// Speculative blocks a shard produced past the deciding round are excluded
/// — they are wasted wall-clock, not part of the estimate — which is what
/// keeps the counts independent of thread interleaving.
pub fn pooled_cycle_counts(
    counts_at_fanout: CycleCounts,
    config: &DipeConfig,
    shards: usize,
    interval: usize,
    consumed_samples: usize,
) -> CycleCounts {
    CycleCounts {
        zero_delay_cycles: counts_at_fanout.zero_delay_cycles
            + (shards as u64 - 1) * config.warmup_cycles as u64
            + consumed_samples as u64 * interval as u64,
        measured_cycles: counts_at_fanout.measured_cycles + consumed_samples as u64,
    }
}

/// The serial front of every sharded session: warm-up plus runs-test
/// interval selection on the primary shard's sampler, honouring cycle
/// budgets exactly like the single-threaded sessions. Both the total-power
/// [`ShardedSession`] and the `activity` crate's sharded breakdown session
/// drive their pre-fanout phases through this one state machine, so budget
/// handling and progress reporting cannot diverge between them.
pub struct SerialFront<'c> {
    state: FrontState<'c>,
}

enum FrontState<'c> {
    Warmup {
        sampler: Box<PowerSampler<'c>>,
        remaining: usize,
    },
    SelectInterval {
        sampler: Box<PowerSampler<'c>>,
        selector: IntervalSelector,
    },
    /// Terminal marker once the sampler has moved to the fan-out (or the
    /// selection failed); the owning session is in its own terminal state
    /// by then and never advances the front again.
    Consumed,
}

/// Outcome of one [`SerialFront::advance`] call.
pub enum FrontStep<'c> {
    /// The cycle deadline was reached; call again with more budget.
    OutOfBudget,
    /// Selection finished: the primary sampler (carrying the post-selection
    /// simulation state, boxed — it is ~KBs of simulator scratch) and the
    /// accepted interval, ready for the fan-out.
    Selected(Box<PowerSampler<'c>>, IndependenceSelection),
}

impl<'c> SerialFront<'c> {
    /// Starts the front at the beginning of warm-up.
    pub fn new(sampler: PowerSampler<'c>, config: &DipeConfig) -> Self {
        SerialFront {
            state: FrontState::Warmup {
                sampler: Box::new(sampler),
                remaining: config.warmup_cycles,
            },
        }
    }

    /// Total simulated cycles so far (0 once the sampler has moved on).
    pub fn cycles_done(&self) -> u64 {
        match &self.state {
            FrontState::Warmup { sampler, .. } | FrontState::SelectInterval { sampler, .. } => {
                sampler.cycle_counts().total()
            }
            FrontState::Consumed => 0,
        }
    }

    /// The phase to report in [`Progress::Running`].
    pub fn phase(&self) -> SessionPhase {
        match &self.state {
            FrontState::Warmup { .. } => SessionPhase::Warmup,
            _ => SessionPhase::IntervalSelection,
        }
    }

    /// Advances warm-up and interval selection until the cycle deadline is
    /// reached or an interval is accepted. `tracer` receives the warm-up
    /// bracket and the per-trial runs-test events (identical to the scalar
    /// session's).
    ///
    /// # Errors
    ///
    /// Propagates [`DipeError::NoIndependenceInterval`] from the selection
    /// procedure; the front is consumed and must not be advanced again.
    pub fn advance(
        &mut self,
        config: &DipeConfig,
        deadline: u64,
        tracer: &telemetry::Tracer,
    ) -> Result<FrontStep<'c>, DipeError> {
        loop {
            match std::mem::replace(&mut self.state, FrontState::Consumed) {
                FrontState::Warmup {
                    mut sampler,
                    mut remaining,
                } => {
                    if sampler.cycle_counts().total() == 0 {
                        crate::estimate::emit_warmup_start(tracer, config.warmup_cycles);
                    }
                    if !crate::estimate::advance_warmup(&mut sampler, &mut remaining, deadline) {
                        self.state = FrontState::Warmup { sampler, remaining };
                        return Ok(FrontStep::OutOfBudget);
                    }
                    crate::estimate::emit_warmup_end(tracer, sampler.cycle_counts());
                    self.state = FrontState::SelectInterval {
                        selector: IntervalSelector::new(config),
                        sampler,
                    };
                }
                FrontState::SelectInterval {
                    mut sampler,
                    mut selector,
                } => match selector.advance(&mut sampler, deadline) {
                    Ok(SelectorStep::OutOfBudget) => {
                        self.state = FrontState::SelectInterval { sampler, selector };
                        return Ok(FrontStep::OutOfBudget);
                    }
                    Ok(SelectorStep::Selected(selection)) => {
                        crate::estimate::emit_selection(tracer, &selection);
                        return Ok(FrontStep::Selected(sampler, selection));
                    }
                    Err(error) => return Err(error),
                },
                FrontState::Consumed => {
                    unreachable!("a consumed front is never advanced again")
                }
            }
        }
    }
}

/// The paper's DIPE estimator with the block-sampling phase fanned out
/// across worker shards.
///
/// Warm-up and interval selection are shared (they run on shard 0's
/// sampler exactly like the single-threaded session); sampling then runs
/// on `shards` concurrent chains whose pooled sample feeds the configured
/// stopping criterion. See the [module docs](self) for the determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedDipeEstimator {
    shards: usize,
}

impl ShardedDipeEstimator {
    /// Creates the estimator with the given shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        ShardedDipeEstimator { shards }
    }

    /// One shard per available CPU.
    pub fn available_parallelism() -> Self {
        ShardedDipeEstimator::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl PowerEstimator for ShardedDipeEstimator {
    fn name(&self) -> String {
        format!("DIPE (runs-test interval, {} shards)", self.shards)
    }

    fn start<'c>(
        &self,
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
    ) -> Result<Box<dyn EstimationSession + 'c>, DipeError> {
        let sampler = PowerSampler::new(circuit, config, input_model, seed_offset)?;
        Ok(Box::new(ShardedSession {
            name: self.name(),
            circuit,
            criterion: config.build_criterion(),
            state: State::Front(SerialFront::new(sampler, config)),
            config: config.clone(),
            input_model: input_model.clone(),
            base_seed_offset: seed_offset,
            shards: self.shards,
            elapsed_seconds: 0.0,
            tracer: telemetry::Tracer::disabled(),
        }))
    }
}

enum State<'c> {
    /// Warm-up + interval selection (the shared serial front).
    Front(SerialFront<'c>),
    Done(Estimate),
    Failed(DipeError),
}

/// The running session behind [`ShardedDipeEstimator`].
///
/// Warm-up and interval selection honour the [`CycleBudget`] exactly like
/// the single-threaded session. Once sampling starts the fan-out runs to
/// completion within that `step` call — the parallel phase owns its worker
/// threads for the duration, and its stopping point is governed by the
/// pooled stopping rule, not the budget.
pub struct ShardedSession<'c> {
    name: String,
    circuit: &'c Circuit,
    config: DipeConfig,
    input_model: InputModel,
    criterion: Box<dyn seqstats::StoppingCriterion>,
    base_seed_offset: u64,
    shards: usize,
    state: State<'c>,
    elapsed_seconds: f64,
    tracer: telemetry::Tracer,
}

impl<'c> ShardedSession<'c> {
    fn run_fanout(
        &mut self,
        sampler: PowerSampler<'c>,
        selection: IndependenceSelection,
        step_start: Instant,
    ) -> Result<Estimate, DipeError> {
        let counts_at_fanout = sampler.cycle_counts();
        let criterion = self.criterion.as_ref();
        let config = &self.config;
        let tracer = &self.tracer;
        tracer.emit("sampling_start", |e| {
            e.field_u64("interval", selection.interval as u64)
                .field_u64("block_size", config.block_size as u64)
                .field_u64("max_samples", config.max_samples as u64)
                .field_u64("shards", self.shards as u64)
                .field_f64_bits("target", config.relative_error)
                .field_str("criterion", criterion.name());
        });
        let mut last_decision: Option<seqstats::StoppingDecision> = None;
        let mut exhausted = false;
        let pooled = run_sharded_blocks(
            self.circuit,
            config,
            &self.input_model,
            self.base_seed_offset,
            sampler,
            selection.interval,
            self.shards,
            &NoFold,
            |sample: &[f64], _payloads: Vec<()>| {
                let decision = criterion.evaluate(sample);
                crate::estimate::emit_stopping_eval(tracer, criterion, &decision);
                let satisfied = decision.satisfied;
                last_decision = Some(decision);
                if satisfied {
                    RoundVerdict::Satisfied
                } else if sample.len() >= config.max_samples {
                    exhausted = true;
                    RoundVerdict::Exhausted
                } else {
                    RoundVerdict::Continue
                }
            },
            tracer,
        )?;
        let decision = last_decision.expect("at least one round was decided");
        if exhausted {
            self.tracer.emit("sample_budget_exhausted", |e| {
                e.field_u64("samples", pooled.sample.len() as u64)
                    .field_f64_bits("rhw", decision.relative_half_width);
            });
            return Err(DipeError::SampleBudgetExhausted {
                samples: pooled.sample.len(),
                achieved_relative_half_width: decision.relative_half_width,
            });
        }
        let cycle_counts = pooled_cycle_counts(
            counts_at_fanout,
            &self.config,
            self.shards,
            selection.interval,
            pooled.sample.len(),
        );
        let mut estimate = crate::estimate::dipe_estimate(
            self.name.clone(),
            pooled.sample,
            decision.relative_half_width,
            cycle_counts,
            self.elapsed_seconds + step_start.elapsed().as_secs_f64(),
            selection,
            self.criterion.name().to_string(),
        );
        estimate.sim_profile = Some(pooled.sim_profile);
        crate::estimate::emit_session_done(&self.tracer, &estimate);
        Ok(estimate)
    }
}

impl EstimationSession for ShardedSession<'_> {
    fn estimator(&self) -> &str {
        &self.name
    }

    fn cycles_done(&self) -> u64 {
        match &self.state {
            State::Front(front) => front.cycles_done(),
            State::Done(estimate) => estimate.cycle_counts.total(),
            State::Failed(_) => 0,
        }
    }

    fn step(&mut self, budget: CycleBudget) -> Result<Progress, DipeError> {
        match &self.state {
            State::Done(estimate) => return Ok(Progress::Done(estimate.clone())),
            State::Failed(error) => return Err(error.clone()),
            State::Front(_) => {}
        }
        let step_start = Instant::now();
        let deadline = self.cycles_done().saturating_add(budget.get());

        let front_step = match &mut self.state {
            State::Front(front) => front.advance(&self.config, deadline, &self.tracer),
            _ => unreachable!("handled at entry"),
        };
        match front_step {
            Ok(FrontStep::OutOfBudget) => {}
            Ok(FrontStep::Selected(sampler, selection)) => {
                // The parallel phase runs to completion in this step; the
                // pooled stopping rule bounds it.
                match self.run_fanout(*sampler, selection, step_start) {
                    Ok(estimate) => {
                        self.state = State::Done(estimate.clone());
                        return Ok(Progress::Done(estimate));
                    }
                    Err(error) => {
                        self.state = State::Failed(error.clone());
                        return Err(error);
                    }
                }
            }
            Err(error) => {
                self.state = State::Failed(error.clone());
                return Err(error);
            }
        }

        self.elapsed_seconds += step_start.elapsed().as_secs_f64();
        let phase = match &self.state {
            State::Front(front) => front.phase(),
            _ => SessionPhase::Sampling,
        };
        Ok(Progress::Running {
            cycles_done: self.cycles_done(),
            samples: 0,
            current_rhw: None,
            phase,
        })
    }

    fn set_tracer(&mut self, tracer: telemetry::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::run_to_completion;
    use crate::DipeEstimator;
    use netlist::iscas89;

    fn config() -> DipeConfig {
        DipeConfig::default().with_seed(2027)
    }

    fn run(estimator: &dyn PowerEstimator, circuit: &Circuit, seed_offset: u64) -> Estimate {
        run_to_completion(
            estimator
                .start(circuit, &config(), &InputModel::uniform(), seed_offset)
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_scalar_session() {
        let circuit = iscas89::load("s298").unwrap();
        let scalar = run(&DipeEstimator::new(), &circuit, 3);
        let sharded = run(&ShardedDipeEstimator::new(1), &circuit, 3);
        assert_eq!(sharded.mean_power_w, scalar.mean_power_w);
        assert_eq!(sharded.relative_half_width, scalar.relative_half_width);
        assert_eq!(sharded.sample_size, scalar.sample_size);
        assert_eq!(sharded.cycle_counts, scalar.cycle_counts);
        assert_eq!(sharded.diagnostics, scalar.diagnostics);
    }

    #[test]
    fn sharded_runs_are_deterministic_across_repeats() {
        let circuit = iscas89::load("s27").unwrap();
        let estimator = ShardedDipeEstimator::new(3);
        let first = run(&estimator, &circuit, 0);
        let second = run(&estimator, &circuit, 0);
        assert_eq!(first.mean_power_w, second.mean_power_w);
        assert_eq!(first.sample_size, second.sample_size);
        assert_eq!(first.cycle_counts, second.cycle_counts);
        assert_eq!(first.diagnostics, second.diagnostics);
    }

    #[test]
    fn shard_estimates_agree_statistically() {
        let circuit = iscas89::load("s27").unwrap();
        let one = run(&ShardedDipeEstimator::new(1), &circuit, 0);
        let four = run(&ShardedDipeEstimator::new(4), &circuit, 0);
        // Different pooled samples, same target quantity: both runs met the
        // 5 % / 0.99 specification, so they agree well within 3 half-widths.
        let gap = (one.mean_power_w - four.mean_power_w).abs() / one.mean_power_w;
        assert!(gap < 0.15, "1-shard vs 4-shard gap {gap}");
        assert!(four.relative_half_width.unwrap() < config().relative_error);
        assert_eq!(
            four.sample_size % (4 * config().block_size),
            0,
            "pooled samples arrive in complete rounds"
        );
    }

    #[test]
    fn pooled_accounting_matches_the_consumed_sample() {
        let circuit = iscas89::load("s27").unwrap();
        let estimate = run(&ShardedDipeEstimator::new(2), &circuit, 5);
        let interval = estimate.independence_interval().unwrap();
        let config = config();
        // Reconstruct: the primary shard's pre-fanout cycles are the
        // warm-up plus the selection trials; every consumed sample costs
        // interval + 1 cycles; the second shard adds one warm-up.
        let selection_samples: usize = match &estimate.diagnostics {
            crate::estimate::Diagnostics::Dipe { selection, .. } => {
                selection.trials.len() * config.sequence_length
            }
            other => panic!("unexpected diagnostics {other:?}"),
        };
        let selection_zero_delay: u64 = match &estimate.diagnostics {
            crate::estimate::Diagnostics::Dipe { selection, .. } => selection
                .trials
                .iter()
                .map(|t| (t.interval * config.sequence_length) as u64)
                .sum(),
            other => panic!("unexpected diagnostics {other:?}"),
        };
        let expected_measured = selection_samples as u64 + estimate.sample_size as u64;
        let expected_zero = 2 * config.warmup_cycles as u64
            + selection_zero_delay
            + (estimate.sample_size * interval) as u64;
        assert_eq!(estimate.cycle_counts.measured_cycles, expected_measured);
        assert_eq!(estimate.cycle_counts.zero_delay_cycles, expected_zero);
    }

    #[test]
    fn exhausted_budget_is_reported() {
        let circuit = iscas89::load("s27").unwrap();
        let mut config = config().with_accuracy(0.001, 0.99);
        config.max_samples = 640;
        let result = run_to_completion(
            ShardedDipeEstimator::new(2)
                .start(&circuit, &config, &InputModel::uniform(), 0)
                .unwrap(),
        );
        match result {
            Err(DipeError::SampleBudgetExhausted { samples, .. }) => assert!(samples >= 640),
            other => panic!("expected SampleBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn stepping_through_warmup_and_selection_reports_progress() {
        let circuit = iscas89::load("s27").unwrap();
        let mut session = ShardedDipeEstimator::new(2)
            .start(&circuit, &config(), &InputModel::uniform(), 0)
            .unwrap();
        let mut saw_running = false;
        let estimate = loop {
            match session.step(CycleBudget::cycles(100)).unwrap() {
                Progress::Running { phase, .. } => {
                    saw_running = true;
                    assert!(matches!(
                        phase,
                        SessionPhase::Warmup | SessionPhase::IntervalSelection
                    ));
                }
                Progress::Done(estimate) => break estimate,
            }
        };
        assert!(saw_running, "a 100-cycle budget must interrupt the run");
        assert!(estimate.mean_power_w > 0.0);
        // Done is sticky.
        assert!(matches!(
            session.step(CycleBudget::cycles(1)).unwrap(),
            Progress::Done(_)
        ));
    }

    #[test]
    fn shard_seed_offsets_are_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 7, 1997] {
            for shard in 0..64 {
                assert!(seen.insert(shard_seed_offset(base, shard)));
            }
        }
        assert_eq!(shard_seed_offset(42, 0), 42, "shard 0 continues the base");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedDipeEstimator::new(0);
    }
}
