//! Breakdown batch identity: node-resolved (per-net breakdown) sessions
//! measuring up to 64 deferred samples per time-sliced word pass must be
//! **bit-identical** to the same sessions measuring one sample at a time on
//! the event-driven backend — on the single-threaded session and on the
//! sharded runtime with one and two shards.
//!
//! Every measured cycle's per-net transition record is folded into a
//! per-net activity accumulator, so besides the `Estimate` bits, the sample
//! and both cycle counts, the battery compares every per-net activity mean,
//! standard error and glitch mean bit for bit. As in
//! `batch_boundary_identity.rs`, blocks of 24 and 96 make batch cuts fall
//! mid-word, the single-threaded session is stepped under budgets of 1, 7
//! and 2048 cycles and resumed from a checkpoint taken mid-block, and
//! batched runs are checked against an oracle that draws every sample with
//! its own `sample_power_w_observing` call, so a batch-sizing error shared
//! by both backends still shows.

use activity::{BreakdownEstimator, ConvergenceTarget, NodeActivityAccumulator};
use dipe::independence::IntervalSelector;
use dipe::input::InputModel;
use dipe::{
    CycleBudget, DipeConfig, Estimate, MeasureMode, PowerEstimator, PowerSampler, Progress,
    SessionPhase,
};
use netlist::{iscas89, Circuit, DelayModel};
use seqstats::NodeStoppingPolicy;

/// The delay models of the battery: levelized, slot-wheel with one slot and
/// the default fanout-loaded annotation.
fn models() -> [DelayModel; 3] {
    [
        DelayModel::Zero,
        DelayModel::Unit(100),
        DelayModel::default(),
    ]
}

/// A short-running configuration whose batch cuts never line up with the
/// 64-lane word. A short warm-up suffices: the battery checks identity, not
/// accuracy.
fn config(model: DelayModel, block_size: usize, mode: MeasureMode) -> DipeConfig {
    let mut config = DipeConfig::default()
        .with_seed(1997)
        .with_delay_model(model)
        .with_measure_mode(mode)
        .with_sequence_length(100)
        .with_accuracy(0.15, 0.95)
        .with_warmup_cycles(32);
    config.block_size = block_size;
    config
}

/// A loose per-node policy, so the whole catalogue converges quickly.
fn policy() -> NodeStoppingPolicy {
    NodeStoppingPolicy::new(0.30, 0.90, 3, 0.20, 64)
}

fn breakdown() -> BreakdownEstimator {
    BreakdownEstimator::new(policy(), ConvergenceTarget::NodeBreakdown)
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// The full bit-identity contract plus the raw bits of the sample and of
/// every per-net activity mean, standard error and glitch mean.
fn assert_breakdowns_bit_identical(a: &Estimate, b: &Estimate, what: &str) {
    testkit::assert_estimates_bit_identical(a, b, what);
    let (a, b) = (a.node_diagnostics().unwrap(), b.node_diagnostics().unwrap());
    assert_eq!(
        bits(a.sample.iter().copied()),
        bits(b.sample.iter().copied()),
        "{what}: sample diverged"
    );
    let (a, b) = (a.breakdown.per_net(), b.breakdown.per_net());
    assert_eq!(a.len(), b.len(), "{what}: net count diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            bits([x.activity, x.activity_std_error, x.glitch_activity]),
            bits([y.activity, y.activity_std_error, y.glitch_activity]),
            "{what}: net {} diverged",
            x.name
        );
    }
}

/// Asserts `estimate` is what the node-targeted breakdown procedure gives
/// when every sample is drawn by its own call: warm-up, one runs-test trial
/// per `sequence_length` samples, then per-sample measurement folded into
/// a per-net accumulator with the node policy evaluated at every block end.
fn assert_matches_per_sample_oracle(circuit: &Circuit, config: &DipeConfig, estimate: &Estimate) {
    let mut sampler = PowerSampler::new(circuit, config, &InputModel::uniform(), 0).unwrap();
    sampler.advance(config.warmup_cycles);
    let mut selector = IntervalSelector::new(config);
    let selection = loop {
        let power_w = sampler.sample_power_w(selector.current_interval());
        if let Some(selection) = selector.push_sample(power_w).unwrap() {
            break selection;
        }
    };
    let capacitances = sampler.calculator().loads().as_slice().to_vec();
    let mut accumulator = NodeActivityAccumulator::for_circuit(circuit);
    let mut sample = Vec::new();
    loop {
        sample.push(
            sampler.sample_power_w_observing(selection.interval, |activity| {
                accumulator.add_glitch_cycle(activity)
            }),
        );
        if sample.len() % config.block_size != 0 {
            continue;
        }
        let means = accumulator.means();
        let weights: Vec<f64> = means
            .iter()
            .zip(&capacitances)
            .map(|(m, c)| m * c)
            .collect();
        let observations = accumulator.observations() as usize;
        if policy()
            .evaluate(&means, &accumulator.std_errors(), &weights, observations)
            .satisfied
        {
            break;
        }
        assert!(sample.len() < config.max_samples, "oracle did not converge");
    }
    let what = format!("{} under {:?}", circuit.name(), config.delay_model);
    let diagnostics = estimate.node_diagnostics().expect("breakdown diagnostics");
    assert_eq!(
        diagnostics.selection, selection,
        "{what}: selection diverged"
    );
    assert_eq!(
        bits(diagnostics.sample.iter().copied()),
        bits(sample.iter().copied()),
        "{what}: sample diverged"
    );
    assert_eq!(
        estimate.cycle_counts,
        sampler.cycle_counts(),
        "{what}: cycles diverged"
    );
    let per_net = diagnostics.breakdown.per_net();
    assert_eq!(
        bits(per_net.iter().map(|net| net.activity)),
        bits(accumulator.means()),
        "{what}: activity means diverged"
    );
    assert_eq!(
        bits(per_net.iter().map(|net| net.activity_std_error)),
        bits(accumulator.std_errors()),
        "{what}: activity standard errors diverged"
    );
}

/// Asserts a sharded run's shard workers measured their blocks in batches.
/// Interval selection batches on every runtime, so the word-pass count
/// alone is not enough: every pass here holds at least min(block_size, 36)
/// samples, while one-sample sampling passes would pull the mean far below
/// 16.
fn assert_shards_batched(estimate: &Estimate, what: &str) {
    let profile = estimate.sim_profile.expect("breakdowns report a profile");
    if profile.time_sliced_cycles == 0 {
        return; // the event-driven fallback measures sample by sample
    }
    assert!(
        profile.time_sliced_word_passes < profile.time_sliced_cycles,
        "{what}: measurements were not batched"
    );
    assert!(
        profile.time_sliced_cycles >= 16 * profile.time_sliced_word_passes,
        "{what}: {} cycles in {} word passes",
        profile.time_sliced_cycles,
        profile.time_sliced_word_passes
    );
}

/// Every catalogue circuit × delay model × {scalar, one shard, two shards}:
/// batched `auto` against sample-by-sample `event-driven`, alternating the
/// two block sizes. The scalar session also matches the per-sample oracle;
/// one shard is checked against it (and so, transitively, against the
/// per-sample event-driven run), two shards against their own
/// event-driven run.
#[test]
fn catalogue_batched_breakdowns_match_per_sample_breakdowns() {
    for (index, circuit) in testkit::catalogue().enumerate() {
        let block_size = if index % 2 == 0 { 24 } else { 96 };
        for model in models() {
            let batched_config = config(model, block_size, MeasureMode::Auto);
            let reference_config = config(model, block_size, MeasureMode::EventDriven);
            let what = format!("{} under {model:?}, block {block_size}", circuit.name());

            let scalar = testkit::run(&breakdown(), &circuit, &batched_config);
            let reference = testkit::run(&breakdown(), &circuit, &reference_config);
            assert_breakdowns_bit_identical(&scalar, &reference, &what);
            assert_matches_per_sample_oracle(&circuit, &batched_config, &scalar);

            let one = testkit::run(&breakdown().sharded(1), &circuit, &batched_config);
            let what_one = format!("{what}, one shard");
            assert_breakdowns_bit_identical(&one, &scalar, &what_one);
            assert_shards_batched(&one, &what_one);

            let two = testkit::run(&breakdown().sharded(2), &circuit, &batched_config);
            let reference = testkit::run(&breakdown().sharded(2), &circuit, &reference_config);
            let what_two = format!("{what}, two shards");
            assert_breakdowns_bit_identical(&two, &reference, &what_two);
            assert_shards_batched(&two, &what_two);
        }
    }
}

/// Steps a fresh breakdown session in `budget`-cycle steps to completion.
/// Every step that stops short must have used its whole budget and
/// overshot it by less than one sample of the largest interval tried, and
/// the finishing step too must end less than one sample past its deadline.
fn run_stepped(circuit: &Circuit, config: &DipeConfig, budget: u64) -> Estimate {
    let mut session = breakdown()
        .start(circuit, config, &InputModel::uniform(), 0)
        .expect("session starts");
    let mut deadlines = Vec::new();
    let mut stops = Vec::new();
    loop {
        let deadline = session.cycles_done() + budget;
        match session
            .step(CycleBudget::cycles(budget))
            .expect("converges")
        {
            Progress::Running { cycles_done, .. } => {
                deadlines.push(deadline);
                stops.push(cycles_done);
            }
            Progress::Done(estimate) => {
                let selection = &estimate.node_diagnostics().unwrap().selection;
                let sample_cycles = selection.interval as u64 + 1;
                for (&deadline, &stop) in deadlines.iter().zip(&stops) {
                    assert!(
                        stop >= deadline && stop < deadline + sample_cycles,
                        "{}: a {budget}-cycle step stopped at {stop} for deadline {deadline}",
                        circuit.name()
                    );
                }
                let end = estimate.cycle_counts.total();
                assert!(
                    end < deadline + sample_cycles,
                    "{}: the last {budget}-cycle step ended at {end} for deadline {deadline}",
                    circuit.name()
                );
                return estimate;
            }
        }
    }
}

/// Step budgets of 1, 7 and 2048 cycles cut the breakdown session's
/// batches at arbitrary points; the result never moves.
#[test]
fn step_budgets_do_not_move_breakdown_batch_boundaries() {
    for name in ["s27", "s298", "s1494"] {
        let circuit = iscas89::load(name).unwrap();
        for model in models() {
            for block_size in [24, 96] {
                let reference = testkit::run(
                    &breakdown(),
                    &circuit,
                    &config(model, block_size, MeasureMode::EventDriven),
                );
                for budget in [1, 7, 2048] {
                    let batched = run_stepped(
                        &circuit,
                        &config(model, block_size, MeasureMode::Auto),
                        budget,
                    );
                    assert_breakdowns_bit_identical(
                        &batched,
                        &reference,
                        &format!("{name} under {model:?}, block {block_size}, budget {budget}"),
                    );
                }
            }
        }
    }
}

/// A breakdown checkpoint taken mid-block (the next batch is a partial
/// one) resumes to the per-sample result.
#[test]
fn mid_block_breakdown_checkpoint_resumes_to_the_per_sample_result() {
    for name in ["s298", "s1494"] {
        let circuit = iscas89::load(name).unwrap();
        for model in models() {
            let batched_config = config(model, 24, MeasureMode::Auto);
            let reference = testkit::run(
                &breakdown(),
                &circuit,
                &config(model, 24, MeasureMode::EventDriven),
            );
            let mut session = breakdown()
                .start(&circuit, &batched_config, &InputModel::uniform(), 0)
                .unwrap();
            let checkpoint = loop {
                match session.step(CycleBudget::cycles(7)).unwrap() {
                    Progress::Running {
                        samples,
                        phase: SessionPhase::Sampling,
                        ..
                    } if samples > 24 && samples % 24 != 0 => {
                        break session.checkpoint().expect("sampling is checkpointable")
                    }
                    Progress::Running { .. } => {}
                    Progress::Done(_) => panic!("{name}: finished before a mid-block stop"),
                }
            };
            let resumed = breakdown()
                .resume(
                    &circuit,
                    &batched_config,
                    &InputModel::uniform(),
                    &checkpoint,
                )
                .unwrap();
            let resumed = dipe::run_to_completion(resumed).unwrap();
            assert_breakdowns_bit_identical(
                &resumed,
                &reference,
                &format!("{name} under {model:?} resumed mid-block"),
            );
        }
    }
}
