//! Layer probes of the traced run: calls into the public functions of
//! `netlist`, `dipe`'s sampler (and through it `logicsim`) and `activity`,
//! timed from outside on a workload's own circuits and configurations.

use std::time::Instant;

use activity::NodeActivityAccumulator;
use dipe::input::InputModel;
use dipe::{DipeConfig, MeasureMode, PowerSampler};
use netlist::{blif, Circuit, CompiledCircuit, DelayModel};

use crate::util::median;

/// Frontend and compiler costs over a workload's netlists.
pub struct NetlistProbe {
    /// BLIF parse seconds for all netlists (median of the repetitions).
    pub parse_s: f64,
    /// Compile plus delay-annotation seconds for all netlists (median).
    pub compile_s: f64,
    /// Bytes per gate of the largest compiled zero-delay program.
    pub bytes_per_gate: f64,
    /// Bytes of the largest compiled zero-delay program.
    pub program_bytes: f64,
}

/// Times `blif::parse`, `CompiledCircuit::compile` and delay annotation
/// over `texts` (BLIF sources), `reps` times.
pub fn netlist_probe(texts: &[String], delay_model: DelayModel, reps: usize) -> NetlistProbe {
    let mut parse = Vec::new();
    let mut compile = Vec::new();
    let mut largest = (0usize, 0usize);
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let circuits: Vec<Circuit> = texts
            .iter()
            .map(|text| blif::parse(text, "probe").expect("the benchmark writes valid BLIF"))
            .collect();
        parse.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        for circuit in &circuits {
            let program = std::hint::black_box(CompiledCircuit::compile(circuit));
            std::hint::black_box(delay_model.annotate(circuit));
            let footprint = program.memory_footprint();
            if footprint.total_bytes > largest.0 {
                largest = (footprint.total_bytes, footprint.num_gates);
            }
        }
        compile.push(started.elapsed().as_secs_f64());
    }
    NetlistProbe {
        parse_s: median(&parse),
        compile_s: median(&compile),
        bytes_per_gate: largest.0 as f64 / largest.1.max(1) as f64,
        program_bytes: largest.0 as f64,
    }
}

/// Simulator and accumulator costs per cycle over a workload's circuits.
#[derive(Default)]
pub struct SimProbe {
    pub zero_delay_ns_per_cycle: f64,
    /// Per measured cycle under `auto`, forced `event-driven` and forced
    /// `time-sliced` (0 where no case could force the backend).
    pub measure_ns_per_cycle: [f64; 3],
    pub word_evals_per_measured_cycle: f64,
    pub lane_events_per_measured_cycle: f64,
    pub useful_lane_ratio: f64,
    pub accumulate_ns_per_cycle: f64,
    /// Cases where a forced backend's per-cycle power bits differed from
    /// `auto`'s.
    pub bit_mismatches: u64,
}

const MODES: [MeasureMode; 3] = [
    MeasureMode::Auto,
    MeasureMode::EventDriven,
    MeasureMode::TimeSliced,
];

/// Cycles simulated per timed chunk.
const CHUNK: usize = 16;

/// Runs chunks of `body` until `budget_s` has passed and at least two
/// chunks ran; returns (seconds, cycles).
fn timed_chunks(budget_s: f64, mut body: impl FnMut(usize)) -> (f64, usize) {
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < 2 * CHUNK || started.elapsed().as_secs_f64() < budget_s {
        body(CHUNK);
        cycles += CHUNK;
    }
    (started.elapsed().as_secs_f64(), cycles)
}

/// Times `PowerSampler::advance` and `measure_cycle_power_w` (each backend)
/// on every `(circuit, config)` case, spending about `budget_s` per
/// measurement, and with `accumulate` an observing accumulator too (the
/// workloads that accumulate per-net activity).
pub fn sim_probe(cases: &[(&Circuit, DipeConfig)], budget_s: f64, accumulate: bool) -> SimProbe {
    let model = InputModel::uniform();
    let mut probe = SimProbe::default();
    let mut measure = [(0.0, 0usize); 3];
    let (mut zero_s, mut zero_cycles) = (0.0, 0usize);
    let mut accumulate_ns = Vec::new();
    let (mut word_evals, mut lane_events, mut sliced_cycles) = (0u64, 0u64, 0u64);
    let mut useful = Vec::new();
    for (circuit, config) in cases {
        let mut reference: Vec<u64> = Vec::new();
        for (slot, mode) in MODES.iter().enumerate() {
            let config = config.clone().with_measure_mode(*mode);
            let Ok(mut sampler) = PowerSampler::new(circuit, &config, &model, 0) else {
                continue;
            };
            sampler.advance(64);
            // One untimed chunk first, so the timing starts on warm caches.
            for _ in 0..CHUNK {
                sampler.measure_cycle_power_w();
            }
            let mut bits = Vec::new();
            let (seconds, cycles) = timed_chunks(budget_s, |n| {
                for _ in 0..n {
                    bits.push(sampler.measure_cycle_power_w().to_bits());
                }
            });
            measure[slot].0 += seconds;
            measure[slot].1 += cycles;
            if slot == 0 {
                reference = bits;
            } else {
                let common = reference.len().min(bits.len());
                if reference[..common] != bits[..common] {
                    probe.bit_mismatches += 1;
                }
            }
            match mode {
                MeasureMode::Auto => {
                    useful.push(if sampler.measurement_backend() == "time-sliced" {
                        1.0 / logicsim::LANES as f64
                    } else {
                        1.0
                    });
                    let (seconds, cycles) = timed_chunks(budget_s, |n| sampler.advance(n));
                    zero_s += seconds;
                    zero_cycles += cycles;
                    if !accumulate {
                        continue;
                    }
                    // The same chunk of cycles runs bare and observed (the
                    // sampler is restored in between, in alternating order),
                    // so the difference is the accumulator's alone; the
                    // median over chunk pairs keeps host noise out of it.
                    let mut accumulator = NodeActivityAccumulator::for_circuit(circuit);
                    let started = Instant::now();
                    let mut chunk = 0;
                    while chunk < 16 || started.elapsed().as_secs_f64() < budget_s {
                        let state = sampler.snapshot();
                        let mut pair = [0.0; 2];
                        for observed in [chunk % 2 == 1, chunk % 2 == 0] {
                            sampler
                                .restore(&state)
                                .expect("a sampler restores its own snapshot");
                            let t = Instant::now();
                            for _ in 0..CHUNK {
                                if observed {
                                    std::hint::black_box(sampler.measure_cycle_power_w_observing(
                                        |activity| accumulator.add_glitch_cycle(activity),
                                    ));
                                } else {
                                    std::hint::black_box(sampler.measure_cycle_power_w());
                                }
                            }
                            pair[usize::from(observed)] = t.elapsed().as_secs_f64();
                        }
                        accumulate_ns.push((pair[1] - pair[0]) * 1e9 / CHUNK as f64);
                        chunk += 1;
                    }
                    std::hint::black_box(accumulator.total_transitions());
                }
                MeasureMode::TimeSliced => {
                    let profile = sampler.sim_profile();
                    word_evals += profile.time_sliced_word_evals;
                    lane_events += profile.time_sliced_lane_events;
                    sliced_cycles += profile.time_sliced_cycles;
                }
                _ => {}
            }
        }
    }
    let per = |seconds: f64, cycles: usize| {
        if cycles == 0 {
            0.0
        } else {
            seconds * 1e9 / cycles as f64
        }
    };
    for (slot, (seconds, cycles)) in measure.iter().enumerate() {
        probe.measure_ns_per_cycle[slot] = per(*seconds, *cycles);
    }
    probe.zero_delay_ns_per_cycle = per(zero_s, zero_cycles);
    probe.accumulate_ns_per_cycle = median(&accumulate_ns);
    if sliced_cycles > 0 {
        probe.word_evals_per_measured_cycle = word_evals as f64 / sliced_cycles as f64;
        probe.lane_events_per_measured_cycle = lane_events as f64 / sliced_cycles as f64;
    }
    probe.useful_lane_ratio = median(&useful);
    probe
}

/// Appends the probe's metrics to `metrics`.
pub fn push_metrics(
    metrics: &mut Vec<(&'static str, f64)>,
    netlist: &NetlistProbe,
    sim: &SimProbe,
) {
    metrics.extend([
        ("netlist.parse_s", netlist.parse_s),
        ("netlist.compile_s", netlist.compile_s),
        ("netlist.bytes_per_gate", netlist.bytes_per_gate),
        ("netlist.program_bytes", netlist.program_bytes),
        (
            "logicsim.zero_delay_ns_per_cycle",
            sim.zero_delay_ns_per_cycle,
        ),
        ("logicsim.measure_ns_per_cycle", sim.measure_ns_per_cycle[0]),
        (
            "logicsim.measure_ns_per_cycle.event_driven",
            sim.measure_ns_per_cycle[1],
        ),
        (
            "logicsim.measure_ns_per_cycle.time_sliced",
            sim.measure_ns_per_cycle[2],
        ),
        (
            "logicsim.word_evals_per_measured_cycle",
            sim.word_evals_per_measured_cycle,
        ),
        (
            "logicsim.lane_events_per_measured_cycle",
            sim.lane_events_per_measured_cycle,
        ),
        ("logicsim.useful_lane_ratio", sim.useful_lane_ratio),
        (
            "activity.accumulate_ns_per_cycle",
            sim.accumulate_ns_per_cycle,
        ),
    ]);
}
