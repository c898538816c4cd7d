//! Two-phase power sampling (Section IV of the paper).
//!
//! During the independence interval the circuit only needs to be *advanced*:
//! a zero-delay simulation of the next-state logic is enough and no power is
//! recorded. At a sampling cycle the captured state and input pattern are
//! handed to the general-delay simulator — the event-driven timing wheel or
//! the time-sliced lane-parallel backend, selected by
//! [`MeasureMode`] — and the dissipated power of that one cycle is computed
//! from the observed transitions via Eq. (1). The two measurement backends
//! report bit-identical counts, so the selection never changes a result.
//! The [`PowerSampler`] encapsulates this machinery and keeps the cycle
//! accounting that the efficiency comparisons need.
//!
//! # Deferred measurement
//!
//! A measured cycle's power is a pure function of two inputs: the stable
//! net values the zero-delay phase hands over and the next input pattern.
//! Neither measurement backend carries state across cycles. Measurements can
//! therefore be deferred: [`PowerSampler::sample_batch_w`] runs the
//! zero-delay phase of up to [`LANES`] samples, packing each sample's two
//! inputs into its own lane, and the time-sliced backend then measures the
//! whole batch in one word pass. The event-driven backend measures sample by
//! sample. Either way the powers, their order and the cycle accounting equal
//! those of drawing the samples one at a time.
//!
//! [`PowerSampler::sample_batch_observing_w`] does the same for loops that
//! fold each measured cycle's glitch-decomposed per-net record (per-net
//! activity accumulators, shard folds): after the pass, every lane's record
//! is projected and handed to the observer in sample order, so the observer
//! sees exactly the records a sample-by-sample loop would.

use logicsim::{
    pack_lane_bit, CompiledSimulator, EventDrivenSimulator, GlitchActivity, LaneActivities,
    PartitionedSimulator, TimeSlicedSimulator, LANES,
};
use netlist::Circuit;
use power::PowerCalculator;

use crate::config::{DipeConfig, EvalMode, MeasureMode};
use crate::error::DipeError;
use crate::input::{InputModel, InputStream};

/// Cycle bookkeeping of a sampling session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CycleCounts {
    /// Cycles simulated with the cheap zero-delay simulator (warm-up and
    /// decorrelation cycles).
    pub zero_delay_cycles: u64,
    /// Cycles simulated with the general-delay simulator (power measurements).
    pub measured_cycles: u64,
}

impl CycleCounts {
    /// Total simulated cycles of both kinds.
    pub fn total(&self) -> u64 {
        self.zero_delay_cycles + self.measured_cycles
    }
}

/// The zero-delay backend the decorrelation cycles run on, selected by
/// [`EvalMode`]. Both variants execute the same compiled instruction stream
/// and are bit-identical; [`PartitionedSimulator`] walks it in cache-resident
/// level tiles, which pays off from ~10^5 gates up.
#[derive(Debug)]
enum ZeroSim<'c> {
    Compiled(CompiledSimulator<'c>),
    Partitioned(PartitionedSimulator<'c>),
}

impl<'c> ZeroSim<'c> {
    fn new(circuit: &'c Circuit, mode: EvalMode) -> ZeroSim<'c> {
        match mode {
            EvalMode::Compiled => ZeroSim::Compiled(CompiledSimulator::new(circuit)),
            EvalMode::Partitioned => ZeroSim::Partitioned(PartitionedSimulator::new(circuit)),
        }
    }

    fn with_program(
        circuit: &'c Circuit,
        program: netlist::CompiledCircuit,
        mode: EvalMode,
    ) -> ZeroSim<'c> {
        match mode {
            EvalMode::Compiled => {
                ZeroSim::Compiled(CompiledSimulator::with_program(circuit, program))
            }
            EvalMode::Partitioned => {
                ZeroSim::Partitioned(PartitionedSimulator::with_program(circuit, program))
            }
        }
    }

    #[inline]
    fn step_state_only(&mut self, inputs: &[bool]) {
        match self {
            ZeroSim::Compiled(sim) => sim.step_state_only(inputs),
            ZeroSim::Partitioned(sim) => sim.step_state_only(inputs),
        }
    }

    #[inline]
    fn values(&self) -> &[bool] {
        match self {
            ZeroSim::Compiled(sim) => sim.values(),
            ZeroSim::Partitioned(sim) => sim.values(),
        }
    }

    fn latch_state(&self) -> Vec<bool> {
        match self {
            ZeroSim::Compiled(sim) => sim.latch_state(),
            ZeroSim::Partitioned(sim) => sim.latch_state(),
        }
    }

    fn input_pattern(&self) -> Vec<bool> {
        match self {
            ZeroSim::Compiled(sim) => sim.input_pattern(),
            ZeroSim::Partitioned(sim) => sim.input_pattern(),
        }
    }

    fn reset_to(&mut self, latch_state: &[bool], input_pattern: &[bool]) {
        match self {
            ZeroSim::Compiled(sim) => sim.reset_to(latch_state, input_pattern),
            ZeroSim::Partitioned(sim) => sim.reset_to(latch_state, input_pattern),
        }
    }
}

/// The delay-aware backend the measured cycles run on, selected by
/// [`MeasureMode`]. Both variants report bit-identical per-net glitch
/// counts, so the choice never changes a power figure — only throughput.
/// The time-sliced backend measures a batch of deferred samples in one word
/// pass, one sample per lane (see [`PowerSampler::sample_batch_w`]).
#[derive(Debug)]
enum MeasureSim<'c> {
    EventDriven(EventDrivenSimulator<'c>),
    TimeSliced {
        sim: TimeSlicedSimulator<'c>,
        /// Reused batch stimulus: lane `l` of word `i` holds sample `l`'s
        /// previous stable value of net `i` / its pattern bit of input `i`.
        prev_words: Vec<u64>,
        input_words: Vec<u64>,
        /// Reused per-lane projection scratch (records handed to observers).
        lanes: LaneActivities,
        /// Cycles measured through this backend (a word pass measures up
        /// to 64).
        measured_cycles: u64,
    },
}

impl<'c> MeasureSim<'c> {
    fn with_delays(
        circuit: &'c Circuit,
        mode: MeasureMode,
        model: logicsim::DelayModel,
        delays: &netlist::GateDelays,
    ) -> Result<Self, DipeError> {
        let time_sliced = |sim: TimeSlicedSimulator<'c>| MeasureSim::TimeSliced {
            sim,
            prev_words: vec![0; circuit.num_nets()],
            input_words: vec![0; circuit.num_primary_inputs()],
            lanes: LaneActivities::zeroed(circuit.num_nets()),
            measured_cycles: 0,
        };
        match mode {
            MeasureMode::EventDriven => Ok(MeasureSim::EventDriven(
                EventDrivenSimulator::with_delays(circuit, model, delays),
            )),
            MeasureMode::TimeSliced => TimeSlicedSimulator::with_delays(circuit, model, delays)
                .map(time_sliced)
                .map_err(|rejection| DipeError::InvalidConfig {
                    message: format!(
                        "measure mode `time-sliced` cannot run delay model `{}`: {rejection}; \
                         use `auto` or `event-driven`",
                        model.id()
                    ),
                }),
            MeasureMode::Auto => Ok(
                match TimeSlicedSimulator::with_delays(circuit, model, delays) {
                    Ok(sim) => time_sliced(sim),
                    Err(_) => MeasureSim::EventDriven(EventDrivenSimulator::with_delays(
                        circuit, model, delays,
                    )),
                },
            ),
        }
    }

    fn delay_model(&self) -> logicsim::DelayModel {
        match self {
            MeasureSim::EventDriven(sim) => sim.delay_model(),
            MeasureSim::TimeSliced { sim, .. } => sim.delay_model(),
        }
    }

    fn backend(&self) -> &'static str {
        match self {
            MeasureSim::EventDriven(_) => "event-driven",
            MeasureSim::TimeSliced { .. } => "time-sliced",
        }
    }
}

/// Generates per-cycle power observations from a circuit under an input
/// model, using the two-phase zero-delay / general-delay scheme.
///
/// The zero-delay phase runs on a compiled backend selected by
/// [`EvalMode`] — the straight-line [`CompiledSimulator`] by default, the
/// cache-blocked [`PartitionedSimulator`] for megagate circuits; both are
/// bit-exact with the interpreted [`logicsim::ZeroDelaySimulator`] — and
/// draws input patterns into reused buffers, so decorrelation cycles — the
/// dominant cost of the whole estimator (Section IV) — perform no per-cycle
/// allocation and no per-gate dispatch.
#[derive(Debug)]
pub struct PowerSampler<'c> {
    circuit: &'c Circuit,
    zero: ZeroSim<'c>,
    full: MeasureSim<'c>,
    calculator: PowerCalculator,
    stream: InputStream,
    counts: CycleCounts,
    /// Reused input-pattern buffer (one slot per primary input).
    pattern: Vec<bool>,
    /// Reused per-batch power buffer.
    powers: Vec<f64>,
}

impl<'c> PowerSampler<'c> {
    /// Creates a sampler for `circuit` with the given configuration and input
    /// model. The RNG is seeded from `config.seed` xored with `seed_offset`,
    /// so repeated runs (Table 2) can use statistically independent streams
    /// while staying reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidConfig`] or
    /// [`DipeError::InputModelMismatch`] if the configuration or input model
    /// is unusable for this circuit.
    pub fn new(
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
    ) -> Result<Self, DipeError> {
        config.validate()?;
        let stream = input_model.stream(circuit, config.seed.wrapping_add(seed_offset))?;
        let calculator = PowerCalculator::new(circuit, config.technology, &config.capacitance);
        let delays = config.delay_model.annotate(circuit);
        Ok(PowerSampler {
            circuit,
            zero: ZeroSim::new(circuit, config.eval_mode),
            full: MeasureSim::with_delays(
                circuit,
                config.measure_mode,
                config.delay_model,
                &delays,
            )?,
            calculator,
            stream,
            counts: CycleCounts::default(),
            pattern: vec![false; circuit.num_primary_inputs()],
            powers: Vec::with_capacity(LANES),
        })
    }

    /// Like [`new`](Self::new), but reuses a previously compiled zero-delay
    /// program and delay annotation instead of recompiling them — the
    /// constructor behind the `dipe-serve` compiled-circuit cache. Both
    /// compilation and annotation are deterministic, so a sampler built this
    /// way is indistinguishable from one built with [`new`](Self::new) for
    /// the same circuit and configuration.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if `program` or `delays` was not built for `circuit` (the
    /// underlying simulators check the sizes).
    pub fn with_compiled(
        circuit: &'c Circuit,
        config: &DipeConfig,
        input_model: &InputModel,
        seed_offset: u64,
        program: netlist::CompiledCircuit,
        delays: &netlist::GateDelays,
    ) -> Result<Self, DipeError> {
        config.validate()?;
        let stream = input_model.stream(circuit, config.seed.wrapping_add(seed_offset))?;
        let calculator = PowerCalculator::new(circuit, config.technology, &config.capacitance);
        Ok(PowerSampler {
            circuit,
            zero: ZeroSim::with_program(circuit, program, config.eval_mode),
            full: MeasureSim::with_delays(
                circuit,
                config.measure_mode,
                config.delay_model,
                delays,
            )?,
            calculator,
            stream,
            counts: CycleCounts::default(),
            pattern: vec![false; circuit.num_primary_inputs()],
            powers: Vec::with_capacity(LANES),
        })
    }

    /// The circuit being sampled.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The power calculator in use (technology and capacitance bound).
    pub fn calculator(&self) -> &PowerCalculator {
        &self.calculator
    }

    /// Cycle bookkeeping so far.
    pub fn cycle_counts(&self) -> CycleCounts {
        self.counts
    }

    /// The simulator profiling counters accumulated by this sampler's
    /// backends so far — the measurement backend's counters plus the
    /// partitioned zero-delay backend's settle-pass count, flattened into
    /// one [`SimProfile`](crate::estimate::SimProfile) record.
    pub fn sim_profile(&self) -> crate::estimate::SimProfile {
        let mut profile = crate::estimate::SimProfile {
            tiles_settled: match &self.zero {
                ZeroSim::Compiled(_) => 0,
                ZeroSim::Partitioned(sim) => sim.tiles_settled(),
            },
            ..Default::default()
        };
        match &self.full {
            MeasureSim::EventDriven(sim) => {
                let counters = sim.counters();
                profile.events_scheduled = counters.events_scheduled;
                profile.events_cancelled = counters.events_cancelled;
                profile.wheel_revolutions = counters.wheel_revolutions;
                profile.inline_evals = counters.inline_evals;
                profile.gather_evals = counters.gather_evals;
                profile.levelized_cycles = counters.levelized_cycles;
                profile.wheel_cycles = counters.wheel_cycles;
            }
            MeasureSim::TimeSliced {
                sim,
                measured_cycles,
                ..
            } => {
                let counters = sim.counters();
                profile.time_sliced_cycles = *measured_cycles;
                profile.time_sliced_word_passes = counters.slot_cycles + counters.levelized_cycles;
                profile.time_sliced_word_evals = counters.word_evals;
                profile.time_sliced_lane_events = counters.lane_events_scheduled;
                profile.time_sliced_lane_cancellations = counters.lane_events_cancelled;
            }
        }
        profile
    }

    /// Which delay-aware backend the measured cycles run on:
    /// `"event-driven"` or `"time-sliced"` (after [`MeasureMode::Auto`]
    /// resolution).
    pub fn measurement_backend(&self) -> &'static str {
        self.full.backend()
    }

    /// Advances the circuit by `cycles` clock cycles with zero-delay
    /// simulation only (no power recorded). Used for the initial warm-up and
    /// for the decorrelation cycles of the independence interval.
    pub fn advance(&mut self, cycles: usize) {
        decorrelate(&mut self.stream, &mut self.zero, &mut self.pattern, cycles);
        self.counts.zero_delay_cycles += cycles as u64;
    }

    /// The delay model of the measurement simulator in use.
    pub fn delay_model(&self) -> logicsim::DelayModel {
        self.full.delay_model()
    }

    /// Simulates one clock cycle with the general-delay simulator and returns
    /// the power dissipated in that cycle, in watts. The circuit state
    /// advances exactly one cycle.
    pub fn measure_cycle_power_w(&mut self) -> f64 {
        self.sample_batch_observing_w(0, 1, |_| {})[0]
    }

    /// Like [`measure_cycle_power_w`](Self::measure_cycle_power_w), but hands
    /// the measured cycle's glitch-decomposed per-net transition record to
    /// `observe` before it is recycled — the hook node-resolved (per-net)
    /// accumulators attach to, without the sampler knowing about them.
    pub fn measure_cycle_power_w_observing<F>(&mut self, observe: F) -> f64
    where
        F: FnOnce(&GlitchActivity),
    {
        self.sample_power_w_observing(0, observe)
    }

    /// Draws one power sample at the given independence interval: advances
    /// `interval` decorrelation cycles, then measures one cycle.
    pub fn sample_power_w(&mut self, interval: usize) -> f64 {
        self.sample_batch_observing_w(interval, 1, |_| {})[0]
    }

    /// Like [`sample_power_w`](Self::sample_power_w), exposing the measured
    /// cycle's glitch-decomposed per-net transition record to `observe`.
    pub fn sample_power_w_observing<F>(&mut self, interval: usize, observe: F) -> f64
    where
        F: FnOnce(&GlitchActivity),
    {
        let mut observe = Some(observe);
        self.sample_batch_observing_w(interval, 1, |activity| {
            if let Some(observe) = observe.take() {
                observe(activity);
            }
        })[0]
    }

    /// Draws `count` power samples at the given independence interval and
    /// returns their powers in sample order — bit-identical to `count`
    /// calls of [`sample_power_w`](Self::sample_power_w), cycle accounting
    /// included.
    ///
    /// The time-sliced backend measures the whole batch in one word pass:
    /// sample `l`'s previous stable values and pattern go into lane `l`
    /// (see the [module docs](self) for why deferring is exact). The
    /// event-driven backend measures sample by sample.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`LANES`].
    pub fn sample_batch_w(&mut self, interval: usize, count: usize) -> &[f64] {
        self.sample_batch_observing_w(interval, count, |_| {})
    }

    /// How many samples at `interval` to draw in one batch so a batched
    /// loop stops exactly where a per-sample loop checking the cycle total
    /// against `deadline` before every sample would: at most `limit`, at
    /// most [`LANES`], and 0 once the deadline is reached. The overshoot
    /// past the deadline thus stays below one sample.
    pub fn batch_size(&self, interval: usize, deadline: u64, limit: usize) -> usize {
        let left = deadline.saturating_sub(self.counts.total());
        let per_sample = interval as u64 + 1;
        left.div_ceil(per_sample).min(limit.min(LANES) as u64) as usize
    }

    /// Like [`sample_batch_w`](Self::sample_batch_w), handing each sample's
    /// glitch-decomposed per-net transition record to `observe` in sample
    /// order — the same records, in the same order, as `count` calls of
    /// [`sample_power_w_observing`](Self::sample_power_w_observing).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`LANES`].
    pub fn sample_batch_observing_w<F>(
        &mut self,
        interval: usize,
        count: usize,
        mut observe: F,
    ) -> &[f64]
    where
        F: FnMut(&GlitchActivity),
    {
        assert!(count <= LANES, "a batch holds at most {LANES} samples");
        self.powers.clear();
        if count == 0 {
            return &self.powers;
        }
        match &mut self.full {
            MeasureSim::EventDriven(sim) => {
                for _ in 0..count {
                    decorrelate(
                        &mut self.stream,
                        &mut self.zero,
                        &mut self.pattern,
                        interval,
                    );
                    self.stream.next_pattern_into(&mut self.pattern);
                    let activity = sim.simulate_cycle(self.zero.values(), &self.pattern);
                    observe(activity);
                    // Eq. (1) charges every transition, glitches included.
                    self.powers
                        .push(self.calculator.cycle_power_w(activity.total()));
                    self.zero.step_state_only(&self.pattern);
                    debug_assert_eq!(sim.stable_values(), self.zero.values());
                }
            }
            MeasureSim::TimeSliced {
                sim,
                prev_words,
                input_words,
                lanes,
                measured_cycles,
            } => {
                for lane in 0..count {
                    decorrelate(
                        &mut self.stream,
                        &mut self.zero,
                        &mut self.pattern,
                        interval,
                    );
                    self.stream.next_pattern_into(&mut self.pattern);
                    for (word, &bit) in prev_words.iter_mut().zip(self.zero.values()) {
                        pack_lane_bit(word, lane, bit);
                    }
                    for (word, &bit) in input_words.iter_mut().zip(&self.pattern) {
                        pack_lane_bit(word, lane, bit);
                    }
                    self.zero.step_state_only(&self.pattern);
                }
                // The unused lanes repeat the last sample (sign extension of
                // its bit): they trigger no evaluation the sample does not.
                let shift = (LANES - count) as u32;
                if shift > 0 {
                    for word in prev_words.iter_mut().chain(input_words.iter_mut()) {
                        *word = (((*word << shift) as i64) >> shift) as u64;
                    }
                }
                let mut projection = sim
                    .simulate_cycle(prev_words, input_words)
                    .project_lanes(lanes);
                for lane in 0..count {
                    let record = projection.lane(lane);
                    observe(record);
                    self.powers
                        .push(self.calculator.cycle_power_w(record.total()));
                }
                *measured_cycles += count as u64;
                // The last sample's settled values are the zero-delay state.
                #[cfg(debug_assertions)]
                for (net, &word) in sim.settled_words().iter().enumerate() {
                    debug_assert_eq!(
                        (word >> (count - 1)) & 1 != 0,
                        self.zero.values()[net],
                        "net {net}"
                    );
                }
            }
        }
        self.counts.zero_delay_cycles += (interval * count) as u64;
        self.counts.measured_cycles += count as u64;
        &self.powers
    }

    /// Collects an ordered power sequence of `length` observations in which
    /// consecutive observations are separated by `interval` decorrelation
    /// cycles. This is the sequence fed to the randomness test (Fig. 2).
    pub fn collect_sequence(&mut self, length: usize, interval: usize) -> Vec<f64> {
        let mut sequence = Vec::with_capacity(length);
        while sequence.len() < length {
            let count = (length - sequence.len()).min(LANES);
            sequence.extend_from_slice(self.sample_batch_w(interval, count));
        }
        sequence
    }

    /// Measures `cycles` *consecutive* clock cycles and returns their power
    /// values — the brute-force reference simulation of the `SIM` column.
    pub fn measure_consecutive_cycles_w(&mut self, cycles: usize) -> Vec<f64> {
        self.collect_sequence(cycles, 0)
    }

    /// Captures the sampler's exact state: input-stream position, latch
    /// state, last applied input pattern and cycle accounting.
    ///
    /// The zero-delay simulator's settled values are a deterministic function
    /// of the latch state and input pattern, and the event-driven measurement
    /// simulator carries no state across cycles, so these four pieces are
    /// sufficient: a sampler [restored](Self::restore) from this snapshot
    /// produces the identical observation sequence bit-for-bit.
    pub fn snapshot(&self) -> crate::checkpoint::SamplerState {
        crate::checkpoint::SamplerState {
            input_stream: self.stream.state(),
            latch_state: self.zero.latch_state(),
            input_pattern: self.zero.input_pattern(),
            cycle_counts: self.counts,
        }
    }

    /// Repositions this sampler at a previously
    /// [captured](Self::snapshot) state. The sampler must have been created
    /// for the same circuit, configuration and input model as the captured
    /// one; the RNG seed it was created with is overwritten by the restored
    /// stream position.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidCheckpoint`] if the state's vectors do not
    /// match this circuit.
    pub fn restore(&mut self, state: &crate::checkpoint::SamplerState) -> Result<(), DipeError> {
        if state.latch_state.len() != self.circuit.num_flip_flops() {
            return Err(DipeError::InvalidCheckpoint {
                message: format!(
                    "sampler state has {} latch values for {} flip-flops",
                    state.latch_state.len(),
                    self.circuit.num_flip_flops()
                ),
            });
        }
        if state.input_pattern.len() != self.circuit.num_primary_inputs() {
            return Err(DipeError::InvalidCheckpoint {
                message: format!(
                    "sampler state has {} input values for {} primary inputs",
                    state.input_pattern.len(),
                    self.circuit.num_primary_inputs()
                ),
            });
        }
        self.stream.restore(&state.input_stream)?;
        self.zero.reset_to(&state.latch_state, &state.input_pattern);
        self.counts = state.cycle_counts;
        Ok(())
    }
}

/// Runs `cycles` zero-delay decorrelation cycles on freshly drawn patterns.
fn decorrelate(
    stream: &mut InputStream,
    zero: &mut ZeroSim<'_>,
    pattern: &mut [bool],
    cycles: usize,
) {
    for _ in 0..cycles {
        stream.next_pattern_into(pattern);
        zero.step_state_only(pattern);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::iscas89;

    fn sampler_for(name: &str, seed: u64) -> (netlist::Circuit, DipeConfig) {
        let c = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(seed);
        (c, config)
    }

    #[test]
    fn cycle_accounting_is_exact() {
        let (c, config) = sampler_for("s27", 1);
        let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        s.advance(10);
        assert_eq!(s.cycle_counts().zero_delay_cycles, 10);
        assert_eq!(s.cycle_counts().measured_cycles, 0);
        let _ = s.measure_cycle_power_w();
        let _ = s.sample_power_w(3);
        assert_eq!(s.cycle_counts().zero_delay_cycles, 13);
        assert_eq!(s.cycle_counts().measured_cycles, 2);
        assert_eq!(s.cycle_counts().total(), 15);
    }

    #[test]
    fn power_samples_are_positive_and_finite() {
        let (c, config) = sampler_for("s298", 2);
        let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        s.advance(64);
        let seq = s.collect_sequence(100, 2);
        assert_eq!(seq.len(), 100);
        assert!(seq.iter().all(|p| p.is_finite() && *p >= 0.0));
        // At probability 0.5 inputs, a mid-size circuit dissipates measurable
        // power in almost every cycle.
        let mean = seqstats::descriptive::mean(&seq);
        assert!(mean > 0.0, "mean power {mean}");
    }

    #[test]
    fn sampling_is_deterministic_for_equal_seeds() {
        let (c, config) = sampler_for("s27", 7);
        let mut a = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let mut b = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        assert_eq!(a.collect_sequence(50, 1), b.collect_sequence(50, 1));
    }

    #[test]
    fn partitioned_mode_is_bit_identical_to_compiled() {
        for name in ["s27", "s298", "s641"] {
            let c = iscas89::load(name).unwrap();
            let compiled_cfg = DipeConfig::default().with_seed(11);
            let partitioned_cfg = compiled_cfg.clone().with_eval_mode(EvalMode::Partitioned);
            let mut a = PowerSampler::new(&c, &compiled_cfg, &InputModel::uniform(), 0).unwrap();
            let mut b = PowerSampler::new(&c, &partitioned_cfg, &InputModel::uniform(), 0).unwrap();
            a.advance(32);
            b.advance(32);
            assert_eq!(
                a.collect_sequence(40, 2),
                b.collect_sequence(40, 2),
                "{name}: partitioned decorrelation diverged from compiled"
            );
            assert_eq!(a.cycle_counts(), b.cycle_counts());
        }
    }

    #[test]
    fn partitioned_mode_snapshots_restore_across_modes() {
        let (c, config) = sampler_for("s298", 5);
        let partitioned = config.clone().with_eval_mode(EvalMode::Partitioned);
        let mut a = PowerSampler::new(&c, &partitioned, &InputModel::uniform(), 0).unwrap();
        a.advance(48);
        let snap = a.snapshot();
        let expected = a.collect_sequence(20, 1);
        // A compiled-mode sampler restored from a partitioned-mode snapshot
        // continues the identical observation sequence.
        let mut b = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        b.restore(&snap).unwrap();
        assert_eq!(b.collect_sequence(20, 1), expected);
    }

    #[test]
    fn seed_offset_changes_the_stream() {
        let (c, config) = sampler_for("s27", 7);
        let mut a = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let mut b = PowerSampler::new(&c, &config, &InputModel::uniform(), 1).unwrap();
        assert_ne!(a.collect_sequence(50, 1), b.collect_sequence(50, 1));
    }

    #[test]
    fn consecutive_cycles_show_temporal_structure() {
        // Not a strict statistical assertion — just verifies the plumbing:
        // the consecutive-cycle sequence has the same length as requested and
        // a strictly positive variance (the circuit is actually switching).
        let (c, config) = sampler_for("s298", 3);
        let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        s.advance(64);
        let seq = s.measure_consecutive_cycles_w(200);
        assert_eq!(seq.len(), 200);
        assert!(seqstats::descriptive::variance(&seq) > 0.0);
    }

    #[test]
    fn observing_variant_matches_plain_measurement() {
        let (c, config) = sampler_for("s298", 9);
        let mut plain = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let mut observed = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let calc = observed.calculator().clone();
        for interval in [0usize, 1, 3] {
            let expected = plain.sample_power_w(interval);
            let mut from_activity = None;
            let got = observed.sample_power_w_observing(interval, |activity| {
                from_activity = Some(calc.cycle_power_w(activity.total()));
            });
            assert_eq!(expected, got);
            // The observed record is exactly the one the power came from.
            assert_eq!(from_activity, Some(got));
        }
        assert_eq!(plain.cycle_counts(), observed.cycle_counts());
    }

    #[test]
    fn measure_modes_are_bit_identical_where_both_apply() {
        for (name, model) in [
            ("s27", logicsim::DelayModel::Unit(100)),
            ("s298", logicsim::DelayModel::Zero),
            ("s298", logicsim::DelayModel::default()),
        ] {
            let c = iscas89::load(name).unwrap();
            let base = DipeConfig::default().with_seed(13).with_delay_model(model);
            let mut event = PowerSampler::new(
                &c,
                &base.clone().with_measure_mode(MeasureMode::EventDriven),
                &InputModel::uniform(),
                0,
            )
            .unwrap();
            let mut sliced = PowerSampler::new(
                &c,
                &base.clone().with_measure_mode(MeasureMode::TimeSliced),
                &InputModel::uniform(),
                0,
            )
            .unwrap();
            assert_eq!(event.measurement_backend(), "event-driven");
            assert_eq!(sliced.measurement_backend(), "time-sliced");
            event.advance(32);
            sliced.advance(32);
            assert_eq!(
                event.collect_sequence(40, 2),
                sliced.collect_sequence(40, 2),
                "{name} under {model:?}: measurement backends diverged"
            );
            assert_eq!(event.cycle_counts(), sliced.cycle_counts());
        }
    }

    #[test]
    fn batches_equal_single_draws_under_both_backends() {
        let (c, config) = sampler_for("s298", 21);
        for mode in [MeasureMode::TimeSliced, MeasureMode::EventDriven] {
            let config = config.clone().with_measure_mode(mode);
            let mut batched = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
            let mut single = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
            for (interval, count) in [(0, 1), (2, 37), (1, LANES), (3, 0)] {
                let expected: Vec<f64> = (0..count)
                    .map(|_| single.sample_power_w(interval))
                    .collect();
                assert_eq!(
                    batched.sample_batch_w(interval, count),
                    expected,
                    "{mode:?}"
                );
                assert_eq!(batched.cycle_counts(), single.cycle_counts());
            }
        }
    }

    #[test]
    fn observing_batches_equal_single_draws() {
        let (c, config) = sampler_for("s298", 23);
        for mode in [MeasureMode::TimeSliced, MeasureMode::EventDriven] {
            let config = config.clone().with_measure_mode(mode);
            let mut batched = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
            let mut single = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
            for (interval, count) in [(0, 1), (2, 37), (1, LANES), (3, 0)] {
                let mut expected_records = Vec::new();
                let expected: Vec<f64> = (0..count)
                    .map(|_| {
                        single.sample_power_w_observing(interval, |activity| {
                            expected_records.push(activity.clone())
                        })
                    })
                    .collect();
                let mut records = Vec::new();
                let powers = batched.sample_batch_observing_w(interval, count, |activity| {
                    records.push(activity.clone())
                });
                assert_eq!(powers, expected, "{mode:?}");
                assert_eq!(records, expected_records, "{mode:?}");
                assert_eq!(batched.cycle_counts(), single.cycle_counts());
            }
        }
    }

    #[test]
    fn batch_size_stops_where_per_sample_deadline_checks_would() {
        let (c, config) = sampler_for("s27", 1);
        let mut s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        s.advance(10);
        // At interval 2 a sample costs 3 cycles: 10 → 13 → 16 crosses 15.
        assert_eq!(s.batch_size(2, 15, 100), 2);
        assert_eq!(s.batch_size(2, 16, 100), 2);
        assert_eq!(s.batch_size(2, 17, 100), 3);
        assert_eq!(s.batch_size(2, 10, 100), 0);
        assert_eq!(s.batch_size(0, u64::MAX, 100), LANES);
        assert_eq!(s.batch_size(0, u64::MAX, 5), 5);
    }

    #[test]
    fn auto_mode_selects_by_slot_representability() {
        let (c, config) = sampler_for("s27", 1);
        let unit = config
            .clone()
            .with_delay_model(logicsim::DelayModel::Unit(100));
        let s = PowerSampler::new(&c, &unit, &InputModel::uniform(), 0).unwrap();
        assert_eq!(s.measurement_backend(), "time-sliced");
        // Random delays have gcd ~1 over a 60–340 ps range: not
        // slot-representable, so auto falls back to the scalar wheel.
        let random = config.with_delay_model(logicsim::DelayModel::random(42));
        let s = PowerSampler::new(&c, &random, &InputModel::uniform(), 0).unwrap();
        assert_eq!(s.measurement_backend(), "event-driven");
    }

    #[test]
    fn forced_time_sliced_mode_rejects_unrepresentable_annotations() {
        let (c, config) = sampler_for("s27", 1);
        let config = config
            .with_delay_model(logicsim::DelayModel::random(42))
            .with_measure_mode(MeasureMode::TimeSliced);
        match PowerSampler::new(&c, &config, &InputModel::uniform(), 0) {
            Err(DipeError::InvalidConfig { message }) => {
                assert!(message.contains("time-sliced"), "{message}");
                assert!(message.contains("event-driven"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_input_model_is_rejected() {
        let (c, config) = sampler_for("s27", 1);
        let model = InputModel::PerInput {
            probabilities: vec![0.5; 2],
        };
        assert!(matches!(
            PowerSampler::new(&c, &config, &model, 0),
            Err(DipeError::InputModelMismatch { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (c, mut config) = sampler_for("s27", 1);
        config.relative_error = 0.0;
        assert!(matches!(
            PowerSampler::new(&c, &config, &InputModel::uniform(), 0),
            Err(DipeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn accessors_work() {
        let (c, config) = sampler_for("s27", 1);
        let s = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        assert_eq!(s.circuit().name(), "s27");
        assert!(s.calculator().loads().total_farads() > 0.0);
    }
}
