//! Selection of the independence interval (Section III.B, Fig. 2 of the
//! paper).
//!
//! Starting from a trial interval of zero cycles, a power sequence is
//! collected in which consecutive observations are separated by the trial
//! interval, and the ordinary runs test is applied at the configured
//! significance level. If the randomness hypothesis is rejected, the trial
//! interval is incremented and the procedure repeats; the first accepted
//! interval is used to generate the estimation sample.

use seqstats::runs_test::RunsTest;

use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::sampler::PowerSampler;

/// The outcome of the runs test at one trial interval.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IntervalTrial {
    /// The trial independence interval in clock cycles.
    pub interval: usize,
    /// The continuity-corrected runs-test statistic.
    pub z: f64,
    /// The observed number of runs.
    pub runs: usize,
    /// Whether the randomness hypothesis was accepted at this interval.
    pub accepted: bool,
}

/// The result of the sequential independence-interval selection procedure.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IndependenceSelection {
    /// The selected independence interval in clock cycles.
    pub interval: usize,
    /// The per-trial diagnostics, in trial order (this is the data behind
    /// Figure 3 of the paper).
    pub trials: Vec<IntervalTrial>,
}

impl IndependenceSelection {
    /// The number of trial intervals that were tested (including the accepted
    /// one).
    pub fn num_trials(&self) -> usize {
        self.trials.len()
    }

    /// The z statistic observed at the accepted interval.
    pub fn accepted_z(&self) -> f64 {
        self.trials.last().map(|t| t.z).unwrap_or(0.0)
    }
}

/// Outcome of one [`IntervalSelector::advance`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectorStep {
    /// The cycle deadline was reached before an interval was accepted; call
    /// [`advance`](IntervalSelector::advance) again to continue.
    OutOfBudget,
    /// An interval passed the randomness test.
    Selected(IndependenceSelection),
}

/// Resumable driver of the sequential selection procedure of Fig. 2 — the
/// single implementation behind both the blocking
/// [`select_independence_interval`] and the re-entrant DIPE session, so the
/// two can never diverge.
#[derive(Debug, Clone)]
pub struct IntervalSelector {
    test: RunsTest,
    sequence_length: usize,
    max_interval: usize,
    interval: usize,
    sequence: Vec<f64>,
    trials: Vec<IntervalTrial>,
}

impl IntervalSelector {
    /// Creates a selector starting at a trial interval of zero.
    pub fn new(config: &DipeConfig) -> Self {
        IntervalSelector {
            test: RunsTest::new(config.significance_level),
            sequence_length: config.sequence_length,
            max_interval: config.max_independence_interval,
            interval: 0,
            sequence: Vec::with_capacity(config.sequence_length),
            trials: Vec::new(),
        }
    }

    /// The trial interval currently being tested. The *next* power sample
    /// offered to the selector must be drawn with this many decorrelation
    /// cycles.
    pub fn current_interval(&self) -> usize {
        self.interval
    }

    /// Feeds one power observation (drawn at [`current_interval`](Self::current_interval)
    /// decorrelation cycles) into the procedure — the push-based core shared
    /// by the pull-driven [`advance`](Self::advance) and the lane-parallel
    /// replicated runner, which interleaves many selectors over one shared
    /// simulation.
    ///
    /// Returns `Ok(Some(selection))` once an interval is accepted and
    /// `Ok(None)` when more samples are needed (re-read
    /// [`current_interval`](Self::current_interval): a rejection advances
    /// the trial interval).
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::NoIndependenceInterval`] if the configured
    /// maximum interval is rejected.
    pub fn push_sample(
        &mut self,
        power_w: f64,
    ) -> Result<Option<IndependenceSelection>, DipeError> {
        self.sequence.push(power_w);
        if self.sequence.len() < self.sequence_length {
            return Ok(None);
        }
        let outcome = self.test.evaluate(&self.sequence);
        self.trials.push(IntervalTrial {
            interval: self.interval,
            z: outcome.z,
            runs: outcome.runs,
            accepted: outcome.accepted,
        });
        if outcome.accepted {
            return Ok(Some(IndependenceSelection {
                interval: self.interval,
                trials: std::mem::take(&mut self.trials),
            }));
        }
        if self.interval >= self.max_interval {
            return Err(DipeError::NoIndependenceInterval {
                max_interval: self.max_interval,
            });
        }
        self.interval += 1;
        self.sequence.clear();
        Ok(None)
    }

    /// Continues the procedure until an interval is accepted or the sampler's
    /// total simulated cycle count reaches `deadline_cycles` (checked before
    /// every sample, so the overshoot is at most one sample).
    ///
    /// Samples are drawn in batches ([`PowerSampler::sample_batch_w`]) that
    /// never cross a trial's end and are sized by
    /// [`PowerSampler::batch_size`], so the selection, its trials and the
    /// cycle counts at every return match a sample-by-sample loop.
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::NoIndependenceInterval`] if no interval up to the
    /// configured maximum passes the test. In practice this only happens for
    /// pathologically periodic circuits; the paper's φ-mixing assumption
    /// guarantees an interval exists.
    pub fn advance(
        &mut self,
        sampler: &mut PowerSampler<'_>,
        deadline_cycles: u64,
    ) -> Result<SelectorStep, DipeError> {
        loop {
            let count = sampler.batch_size(
                self.interval,
                deadline_cycles,
                self.sequence_length - self.sequence.len(),
            );
            if count == 0 {
                return Ok(SelectorStep::OutOfBudget);
            }
            for &power_w in sampler.sample_batch_w(self.interval, count) {
                if let Some(selection) = self.push_sample(power_w)? {
                    return Ok(SelectorStep::Selected(selection));
                }
            }
        }
    }
}

/// Runs the sequential selection procedure of Fig. 2 to completion.
///
/// # Errors
///
/// Returns [`DipeError::NoIndependenceInterval`] if no interval up to
/// `config.max_independence_interval` passes the test.
pub fn select_independence_interval(
    sampler: &mut PowerSampler<'_>,
    config: &DipeConfig,
) -> Result<IndependenceSelection, DipeError> {
    match IntervalSelector::new(config).advance(sampler, u64::MAX)? {
        SelectorStep::Selected(selection) => Ok(selection),
        SelectorStep::OutOfBudget => unreachable!("the deadline is unbounded"),
    }
}

/// Evaluates the runs-test statistic at *every* interval in
/// `0..=max_interval`, without stopping at the first acceptance. This is the
/// sweep behind Figure 3 of the paper (z statistic versus trial interval
/// length for a fixed sequence length).
pub fn z_statistic_profile(
    sampler: &mut PowerSampler<'_>,
    config: &DipeConfig,
    max_interval: usize,
    sequence_length: usize,
) -> Vec<IntervalTrial> {
    let test = RunsTest::new(config.significance_level);
    (0..=max_interval)
        .map(|interval| {
            let sequence = sampler.collect_sequence(sequence_length, interval);
            let outcome = test.evaluate(&sequence);
            IntervalTrial {
                interval,
                z: outcome.z,
                runs: outcome.runs,
                accepted: outcome.accepted,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputModel;
    use netlist::iscas89;

    fn make_sampler(name: &str, seed: u64) -> (netlist::Circuit, DipeConfig) {
        let c = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(seed);
        (c, config)
    }

    #[test]
    fn selection_finds_a_small_interval_for_s27() {
        let (c, config) = make_sampler("s27", 11);
        let mut sampler = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        sampler.advance(config.warmup_cycles);
        let selection = select_independence_interval(&mut sampler, &config).unwrap();
        // The paper reports intervals of a few cycles across the whole suite.
        assert!(selection.interval <= 8, "interval {}", selection.interval);
        assert_eq!(selection.num_trials(), selection.interval + 1);
        assert!(selection.trials.last().unwrap().accepted);
        // All earlier trials were rejections.
        for t in &selection.trials[..selection.trials.len() - 1] {
            assert!(!t.accepted);
        }
        // The accepted z is within the acceptance region.
        let c_crit = seqstats::normal::two_sided_critical_value(config.significance_level);
        assert!(selection.accepted_z().abs() <= c_crit);
    }

    #[test]
    fn selection_finds_a_small_interval_for_s298() {
        let (c, config) = make_sampler("s298", 5);
        let mut sampler = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        sampler.advance(config.warmup_cycles);
        let selection = select_independence_interval(&mut sampler, &config).unwrap();
        assert!(selection.interval <= 10, "interval {}", selection.interval);
    }

    #[test]
    fn z_profile_decays_with_interval() {
        // Figure 3 shape: the z statistic is large (strong clustering) at
        // interval 0 for a strongly correlated circuit and small at larger
        // intervals. With a moderate sequence length the decay is already
        // visible; we assert the broad shape rather than exact values.
        let (c, config) = make_sampler("s298", 17);
        let mut sampler = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        sampler.advance(config.warmup_cycles);
        let profile = z_statistic_profile(&mut sampler, &config, 6, 1000);
        assert_eq!(profile.len(), 7);
        let z0 = profile[0].z.abs();
        let z_late: f64 = profile[4..]
            .iter()
            .map(|t| t.z.abs())
            .fold(f64::INFINITY, f64::min);
        assert!(
            z_late <= z0 + 1e-9,
            "|z| should not grow with the interval: z0 = {z0}, late = {z_late}"
        );
        // Intervals are labelled correctly.
        for (i, t) in profile.iter().enumerate() {
            assert_eq!(t.interval, i);
        }
    }

    #[test]
    fn profile_interval_zero_matches_consecutive_sampling() {
        // At interval 0 the sequence is just consecutive measured cycles, so
        // the runs count must be between 1 and the sequence length.
        let (c, config) = make_sampler("s27", 23);
        let mut sampler = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
        let profile = z_statistic_profile(&mut sampler, &config, 0, 200);
        assert_eq!(profile.len(), 1);
        assert!(profile[0].runs >= 1 && profile[0].runs <= 200);
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let (c, config) = make_sampler("s27", 31);
        let run = || {
            let mut sampler = PowerSampler::new(&c, &config, &InputModel::uniform(), 0).unwrap();
            sampler.advance(config.warmup_cycles);
            select_independence_interval(&mut sampler, &config).unwrap()
        };
        assert_eq!(run(), run());
    }
}
