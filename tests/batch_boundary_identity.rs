//! Batch-boundary identity: a DIPE session measuring up to 64 deferred
//! samples per time-sliced word pass must be **bit-identical** to the same
//! session measuring one sample at a time on the event-driven backend.
//!
//! Batches are cut at runs-test trial ends, at stopping-rule evaluations and
//! where a sample-by-sample loop would stop for the cycle budget. The battery
//! picks sizes that make those cuts fall mid-word: a runs-test sequence of
//! 100 samples and blocks of 24 and 96, none of which divides 64, under step
//! budgets of 1, 7 and 2048 cycles, and across a checkpoint taken in the
//! middle of a block. Every comparison covers the `Estimate` bits, the
//! interval trials, the sample and both cycle counts. Batched runs are also
//! checked against an oracle that calls `PowerSampler::sample_power_w` once
//! per sample, so a batch-sizing error shared by both backends still shows.

use dipe::independence::IntervalSelector;
use dipe::input::InputModel;
use dipe::{
    CycleBudget, Diagnostics, DipeConfig, DipeEstimator, Estimate, MeasureMode, PowerEstimator,
    PowerSampler, Progress, SessionPhase,
};
use netlist::{iscas89, Circuit, DelayModel};

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
/// 64-lane word.
fn config(model: DelayModel, block_size: usize, mode: MeasureMode) -> DipeConfig {
    let mut config = DipeConfig::default()
        .with_seed(1997)
        .with_delay_model(model)
        .with_measure_mode(mode)
        .with_sequence_length(100)
        .with_accuracy(0.15, 0.95);
    config.block_size = block_size;
    config
}

/// Steps a fresh session in `budget`-cycle steps to completion. Every step
/// that stops short must have used its whole budget and overshot it by less
/// than one sample of the largest interval tried.
fn run_stepped(circuit: &Circuit, config: &DipeConfig, budget: u64) -> Estimate {
    let mut session = DipeEstimator::new()
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
                let Diagnostics::Dipe { selection, .. } = &estimate.diagnostics else {
                    panic!("DIPE diagnostics expected");
                };
                let sample_cycles = selection.interval as u64 + 1;
                for (&deadline, &stop) in deadlines.iter().zip(&stops) {
                    assert!(
                        stop >= deadline && stop < deadline + sample_cycles,
                        "{}: a {budget}-cycle step stopped at {stop} for deadline {deadline}",
                        circuit.name()
                    );
                }
                return estimate;
            }
        }
    }
}

fn run_unbounded(circuit: &Circuit, config: &DipeConfig) -> Estimate {
    testkit::run(&DipeEstimator::new(), circuit, config)
}

/// Asserts `estimate` is what the DIPE procedure gives when every sample is
/// drawn by its own `sample_power_w` call: warm-up, one runs-test trial per
/// `sequence_length` samples, then the stopping rule at every block end.
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
    let criterion = config.build_criterion();
    let mut sample = Vec::new();
    loop {
        sample.push(sampler.sample_power_w(selection.interval));
        if sample.len() % config.block_size == 0 && criterion.evaluate(&sample).satisfied {
            break;
        }
    }
    let Diagnostics::Dipe {
        selection: got_selection,
        sample: got_sample,
        ..
    } = &estimate.diagnostics
    else {
        panic!("DIPE diagnostics expected");
    };
    let what = format!("{} under {:?}", circuit.name(), config.delay_model);
    assert_eq!(got_selection, &selection, "{what}: selection diverged");
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got_sample), bits(&sample), "{what}: sample diverged");
    assert_eq!(
        estimate.cycle_counts,
        sampler.cycle_counts(),
        "{what}: cycles diverged"
    );
}

/// Every catalogue circuit × delay model: batched `auto` against
/// sample-by-sample `event-driven`, alternating the two block sizes.
#[test]
fn catalogue_batched_measurement_matches_per_sample_measurement() {
    for (index, circuit) in testkit::catalogue().enumerate() {
        let block_size = if index % 2 == 0 { 24 } else { 96 };
        for model in models() {
            let batched = run_unbounded(&circuit, &config(model, block_size, MeasureMode::Auto));
            let reference = run_unbounded(
                &circuit,
                &config(model, block_size, MeasureMode::EventDriven),
            );
            let what = format!("{} under {model:?}, block {block_size}", circuit.name());
            testkit::assert_estimates_bit_identical(&batched, &reference, &what);
            assert_matches_per_sample_oracle(
                &circuit,
                &config(model, block_size, MeasureMode::Auto),
                &batched,
            );
            let profile = batched.sim_profile.expect("DIPE reports a profile");
            if profile.time_sliced_cycles > 0 {
                assert_eq!(
                    profile.time_sliced_cycles, batched.cycle_counts.measured_cycles,
                    "{what}: every measured cycle ran time-sliced"
                );
                assert!(
                    profile.time_sliced_word_passes < profile.time_sliced_cycles,
                    "{what}: measurements were not batched"
                );
            }
        }
    }
}

/// Step budgets of 1, 7 and 2048 cycles cut batches at arbitrary points of
/// warm-up, selection and sampling; the result never moves.
#[test]
fn step_budgets_do_not_move_batch_boundaries() {
    for name in ["s27", "s298", "s1494"] {
        let circuit = iscas89::load(name).unwrap();
        for model in models() {
            for block_size in [24, 96] {
                let reference = run_unbounded(
                    &circuit,
                    &config(model, block_size, MeasureMode::EventDriven),
                );
                for budget in [1, 7, 2048] {
                    let batched = run_stepped(
                        &circuit,
                        &config(model, block_size, MeasureMode::Auto),
                        budget,
                    );
                    testkit::assert_estimates_bit_identical(
                        &batched,
                        &reference,
                        &format!("{name} under {model:?}, block {block_size}, budget {budget}"),
                    );
                }
            }
        }
    }
}

/// A checkpoint taken mid-block (the sample is not a multiple of the block
/// size, so the next batch is a partial one) resumes to the per-sample
/// result.
#[test]
fn mid_sampling_checkpoint_resumes_to_the_per_sample_result() {
    for name in ["s298", "s1494"] {
        let circuit = iscas89::load(name).unwrap();
        for model in models() {
            let batched_config = config(model, 24, MeasureMode::Auto);
            let reference = run_unbounded(&circuit, &config(model, 24, MeasureMode::EventDriven));
            let mut session = DipeEstimator::new()
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
            let resumed = DipeEstimator::new()
                .resume(
                    &circuit,
                    &batched_config,
                    &InputModel::uniform(),
                    &checkpoint,
                )
                .unwrap();
            let resumed = dipe::run_to_completion(resumed).unwrap();
            testkit::assert_estimates_bit_identical(
                &resumed,
                &reference,
                &format!("{name} under {model:?} resumed mid-block"),
            );
        }
    }
}
