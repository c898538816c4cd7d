//! Outside-in phase attribution of one estimation session.
//!
//! A session is stepped with a small [`CycleBudget`]; every `step` call is
//! timed, and a benchmark-owned [`StampSink`] timestamps each trace event as
//! the session emits it. A step is charged to the phase the session was in
//! when it began, split at the `warmup_end` and `interval_accepted` events
//! that fall inside it. The phase the session reports in
//! [`Progress::Running`] after each step must agree with the attribution;
//! disagreements are counted. Nothing here changes what the session
//! computes: the tracer is the program's own and results are bit-identical
//! with or without it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dipe::input::InputModel;
use dipe::{CycleBudget, DipeConfig, DipeError, Estimate, PowerEstimator, Progress, SessionPhase};
use netlist::Circuit;
use telemetry::{TraceSink, Tracer};

use crate::util::process_cpu_seconds;

/// Cycles per `step` call of a phase-attributed session.
pub const STEP_CYCLES: u64 = 2048;

/// Accepted distance from 1 of [`PhaseTotals::attributed_s`] over the wall
/// time of the traced passes: the phases must account for it within 5 %.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// One trace line with its arrival time and the process CPU clock then.
pub struct Stamp {
    pub at: Instant,
    pub cpu_s: f64,
    pub line: String,
}

/// A [`TraceSink`] that keeps every line with its arrival timestamp.
#[derive(Default)]
pub struct StampSink {
    stamps: Mutex<Vec<Stamp>>,
}

impl StampSink {
    /// Removes and returns the stamps recorded so far.
    pub fn drain(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock().expect("trace sink lock poisoned"))
    }
}

impl TraceSink for StampSink {
    fn record(&self, line: &str) {
        let stamp = Stamp {
            at: Instant::now(),
            cpu_s: process_cpu_seconds(),
            line: line.to_string(),
        };
        self.stamps
            .lock()
            .expect("trace sink lock poisoned")
            .push(stamp);
    }
}

/// The `event` field of a trace line.
pub fn event_name(line: &str) -> &str {
    const KEY: &str = "\"event\":\"";
    line.find(KEY)
        .map(|at| {
            let rest = &line[at + KEY.len()..];
            &rest[..rest.find('"').unwrap_or(rest.len())]
        })
        .unwrap_or("")
}

/// An unsigned integer field of a trace line.
pub fn field_u64(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = line.find(&key)? + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Per-phase sums over every phase-attributed session of a run.
#[derive(Debug, Default, Clone)]
pub struct PhaseTotals {
    pub start_s: f64,
    pub warmup_s: f64,
    pub interval_s: f64,
    pub sampling_s: f64,
    pub warmup_cycles: u64,
    pub interval_trials: u64,
    pub interval_cycles: u64,
    pub samples: u64,
    pub stopping_evals: u64,
    pub phase_mismatches: u64,
    pub rounds: u64,
    pub round_intervals_ms: Vec<f64>,
    pub pooled_samples: u64,
    pub discarded_samples: u64,
    pub sampling_cpu_s: f64,
    pub sampling_wall_s: f64,
}

impl PhaseTotals {
    /// Seconds attributed to a phase, session start included.
    pub fn attributed_s(&self) -> f64 {
        self.start_s + self.warmup_s + self.interval_s + self.sampling_s
    }

    fn charge(&mut self, phase: SessionPhase, seconds: f64) {
        match phase {
            SessionPhase::Warmup => self.warmup_s += seconds,
            SessionPhase::IntervalSelection => self.interval_s += seconds,
            _ => self.sampling_s += seconds,
        }
    }
}

/// Runs one session to completion in [`STEP_CYCLES`] steps, attributing
/// its wall time to phases in `totals`.
///
/// # Errors
///
/// The session's own error.
pub fn run_phased(
    estimator: &dyn PowerEstimator,
    circuit: &Circuit,
    config: &DipeConfig,
    input_model: &InputModel,
    totals: &mut PhaseTotals,
) -> Result<Estimate, DipeError> {
    let sink = Arc::new(StampSink::default());
    let started = Instant::now();
    let mut session = estimator.start(circuit, config, input_model, 0)?;
    session.set_tracer(Tracer::to_sink(Arc::clone(&sink) as Arc<dyn TraceSink>));
    totals.start_s += started.elapsed().as_secs_f64();
    let mut phase = SessionPhase::Warmup;
    let mut sampling_from: Option<(Instant, f64)> = None;
    let mut last_round: Option<Instant> = None;
    loop {
        let step_start = Instant::now();
        let progress = session.step(CycleBudget::cycles(STEP_CYCLES));
        let step_end = Instant::now();
        let cpu_end = process_cpu_seconds();
        let mut cursor = step_start;
        for stamp in sink.drain() {
            let line = stamp.line.as_str();
            match event_name(line) {
                "warmup_end" => {
                    totals.charge(phase, (stamp.at - cursor).as_secs_f64());
                    cursor = stamp.at;
                    phase = SessionPhase::IntervalSelection;
                    totals.warmup_cycles += field_u64(line, "zero_delay_cycles").unwrap_or(0)
                        + field_u64(line, "measured_cycles").unwrap_or(0);
                }
                "interval_trial" => {
                    totals.interval_trials += 1;
                    let interval = field_u64(line, "interval").unwrap_or(0);
                    totals.interval_cycles += config.sequence_length as u64 * (interval + 1);
                }
                "interval_accepted" => {
                    totals.charge(phase, (stamp.at - cursor).as_secs_f64());
                    cursor = stamp.at;
                    phase = SessionPhase::Sampling;
                    sampling_from = Some((stamp.at, stamp.cpu_s));
                    last_round = Some(stamp.at);
                }
                "stopping_eval" => totals.stopping_evals += 1,
                "round_merged" => {
                    totals.rounds += 1;
                    if let Some(previous) = last_round {
                        totals
                            .round_intervals_ms
                            .push((stamp.at - previous).as_secs_f64() * 1e3);
                    }
                    last_round = Some(stamp.at);
                }
                "speculative_discard" => {
                    totals.discarded_samples +=
                        field_u64(line, "blocks").unwrap_or(0) * config.block_size as u64;
                }
                _ => {}
            }
        }
        totals.charge(phase, (step_end - cursor).as_secs_f64());
        match progress? {
            Progress::Running {
                phase: reported, ..
            } => {
                if reported != phase {
                    totals.phase_mismatches += 1;
                }
            }
            Progress::Done(estimate) => {
                totals.samples += estimate.sample_size as u64;
                if let Some((at, cpu)) = sampling_from {
                    totals.sampling_wall_s += (step_end - at).as_secs_f64();
                    totals.sampling_cpu_s += cpu_end - cpu;
                }
                if totals.rounds > 0 {
                    totals.pooled_samples += estimate.sample_size as u64;
                }
                return Ok(estimate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_fields_parse() {
        let line = "{\"trace_version\":1,\"event\":\"warmup_end\",\"zero_delay_cycles\":256,\"measured_cycles\":0}";
        assert_eq!(event_name(line), "warmup_end");
        assert_eq!(field_u64(line, "zero_delay_cycles"), Some(256));
        assert_eq!(field_u64(line, "measured_cycles"), Some(0));
        assert_eq!(field_u64(line, "missing"), None);
    }

    #[test]
    fn phases_cover_a_session_and_match_its_reports() {
        let circuit = netlist::iscas89::load("s298").unwrap();
        let config = DipeConfig::default().with_seed(5);
        let mut totals = PhaseTotals::default();
        let started = Instant::now();
        let estimate = run_phased(
            &dipe::DipeEstimator::new(),
            &circuit,
            &config,
            &InputModel::uniform(),
            &mut totals,
        )
        .unwrap();
        let wall = started.elapsed().as_secs_f64();
        let plain = dipe::run_to_completion(
            dipe::DipeEstimator::new()
                .start(&circuit, &config, &InputModel::uniform(), 0)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            estimate.mean_power_w.to_bits(),
            plain.mean_power_w.to_bits()
        );
        assert_eq!(totals.phase_mismatches, 0);
        assert!(totals.interval_trials >= 1);
        assert_eq!(totals.warmup_cycles, config.warmup_cycles as u64);
        let counts = estimate.cycle_counts.total();
        let interval = estimate.independence_interval().unwrap() as u64;
        assert_eq!(
            totals.warmup_cycles + totals.interval_cycles + totals.samples * (interval + 1),
            counts
        );
        assert!(totals.attributed_s() <= wall * 1.000_001);
        assert!(totals.attributed_s() >= wall * (1.0 - COVERAGE_TOLERANCE));
    }
}
