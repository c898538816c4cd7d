//! The three batch workloads: a fixed list of estimates driven in-process,
//! one after another, for as many passes as fit in the run.
//!
//! * `table1_scalar` — the 24 Table 1 circuits, scalar [`DipeEstimator`],
//!   default fanout delays, 5 % / 0.99, two estimator seeds each.
//! * `breakdown_shards2` — per-net breakdown (node target, default policy)
//!   through `BreakdownEstimator::sharded(2)` on s1494 and s5378 with unit
//!   delays, two estimator seeds each.
//! * `megagate_blif` — a 10^5-gate `generate_tiled` tile written to BLIF,
//!   parsed back with `netlist::blif::parse` and estimated with the
//!   partitioned evaluator under zero delay, two estimator seeds.
//!
//! The estimate list is fixed, so every run does the same simulation work
//! and every estimate is checked against golden bits; the workload seed
//! shuffles the order of each pass.

use std::time::Instant;

use activity::{BreakdownEstimator, ConvergenceTarget};
use dipe::input::InputModel;
use dipe::{DipeConfig, DipeEstimator, Estimate, EvalMode, MeasureMode, PowerEstimator};
use netlist::generator::{generate_tiled, TiledConfig};
use netlist::{blif, iscas89, Circuit, DelayModel};
use seqstats::NodeStoppingPolicy;

use crate::golden::{Bits, Golden};
use crate::phases::{run_phased, PhaseTotals, COVERAGE_TOLERANCE};
use crate::probes::{netlist_probe, push_metrics, sim_probe};
use crate::util::{median, peak_rss_mb, reset_peak_rss, secs, shuffle, tracing_overhead};
use crate::{Outcome, RunOptions, Samples, Timed};

/// Which estimator a workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Scalar,
    Breakdown,
}

fn estimator(kind: Kind) -> Box<dyn PowerEstimator> {
    match kind {
        Kind::Scalar => Box::new(DipeEstimator::new()),
        Kind::Breakdown => Box::new(
            BreakdownEstimator::new(
                NodeStoppingPolicy::default_spec(),
                ConvergenceTarget::NodeBreakdown,
            )
            .sharded(2),
        ),
    }
}

struct Job {
    key: String,
    circuit: usize,
    config: DipeConfig,
}

/// A batch workload after set-up: its circuits and its fixed estimate list.
struct Batch {
    kind: Kind,
    circuits: Vec<Circuit>,
    jobs: Vec<Job>,
    /// Seconds of each set-up repetition.
    setup: Vec<Timed>,
    /// The BLIF source of every circuit, for the netlist probe.
    blif: Vec<String>,
}

/// The circuits, estimator seeds and configuration of a workload.
struct Plan {
    kind: Kind,
    names: Vec<String>,
    seeds: Vec<u64>,
    config: DipeConfig,
    tag: &'static str,
    /// Gate count of the generated tile (`megagate_blif` only).
    tile_gates: Option<usize>,
    /// Further `(circuit index, seed)` estimates beyond `names × seeds`.
    extra_seeds: &'static [(usize, u64)],
}

/// The workloads this module runs.
pub const WORKLOADS: &[&str] = &["table1_scalar", "breakdown_shards2", "megagate_blif"];

/// Set-up repeats, each from a trimmed heap, for at least this many seconds (and at least
/// [`SETUP_MIN_REPS`] times) before an untraced run's passes.
const SETUP_SECONDS: f64 = 3.0;
const SETUP_MIN_REPS: usize = 5;

fn plan(workload: &str, smoke: bool) -> Plan {
    let seeds = if smoke { vec![1] } else { vec![1, 2] };
    let names = |full: &[&str], small: &[&str]| -> Vec<String> {
        let list = if smoke { small } else { full };
        list.iter().map(|s| s.to_string()).collect()
    };
    match workload {
        "table1_scalar" => Plan {
            kind: Kind::Scalar,
            names: names(iscas89::TABLE1_CIRCUITS, &["s208", "s298", "s1494"]),
            seeds,
            config: DipeConfig::default(),
            tag: "fanout",
            tile_gates: None,
            extra_seeds: &[],
        },
        "breakdown_shards2" => Plan {
            kind: Kind::Breakdown,
            names: names(&["s1494", "s5378"], &["s298"]),
            seeds,
            // Three estimates of the cheaper circuit and two of the dearer
            // one, so the median estimate latency lies inside one circuit's
            // cluster rather than on the gap between the two.
            extra_seeds: if smoke { &[] } else { &[(0, 3)] },
            config: DipeConfig::default().with_delay_model(DelayModel::Unit(100)),
            tag: "unit100-node-shards2",
            tile_gates: None,
        },
        "megagate_blif" => {
            let gates = if smoke { 5_000 } else { 100_000 };
            Plan {
                kind: Kind::Scalar,
                names: vec![format!("tile{gates}")],
                seeds,
                config: DipeConfig::default()
                    .with_delay_model(DelayModel::Zero)
                    .with_eval_mode(EvalMode::Partitioned),
                tag: "zero-partitioned",
                tile_gates: Some(gates),
                extra_seeds: &[],
            }
        }
        other => unreachable!("{other} is not a batch workload"),
    }
}

/// Loads (or parses) every circuit and starts one session on each; returns
/// the circuits. This is the set-up `setup_s` times.
fn set_up(plan: &Plan, tile_blif: Option<&str>) -> Vec<Circuit> {
    let circuits: Vec<Circuit> = match tile_blif {
        Some(text) => {
            vec![blif::parse(text, plan.names[0].clone()).expect("the benchmark writes valid BLIF")]
        }
        None => plan
            .names
            .iter()
            .map(|name| iscas89::load(name).expect("catalogued circuit"))
            .collect(),
    };
    let estimator = estimator(plan.kind);
    let config = plan.config.clone().with_seed(plan.seeds[0]);
    for circuit in &circuits {
        std::hint::black_box(
            estimator
                .start(circuit, &config, &InputModel::uniform(), 0)
                .expect("the workload configuration is valid"),
        );
    }
    circuits
}

/// Sets the workload up `min_reps` times or for `budget_s` seconds,
/// whichever is more, and builds its estimate list.
fn build(plan: &Plan, min_reps: usize, budget_s: f64) -> Batch {
    // The tile and its BLIF text are the benchmark's input, made before
    // any timing; parsing it is the program's set-up.
    let tile_blif = plan.tile_gates.map(|gates| {
        let tile = generate_tiled(&TiledConfig::new(plan.names[0].clone(), gates).with_seed(1))
            .expect("valid tiled configuration");
        blif::write(&tile)
    });
    let mut setup = Vec::new();
    let mut circuits = Vec::new();
    let budget = Instant::now();
    while setup.len() < min_reps.max(1) || secs(budget) < budget_s {
        // Each repetition sets up as a fresh process would, right after a
        // reference-kernel run that scales it.
        drop(std::mem::take(&mut circuits));
        let kernel_s = crate::util::reference_kernel();
        crate::util::trim_heap();
        let started = Instant::now();
        circuits = set_up(plan, tile_blif.as_deref());
        setup.push(Timed {
            compute_s: secs(started),
            other_s: 0.0,
            kernel_s: Some(kernel_s),
        });
    }
    let blif = match tile_blif {
        Some(text) => vec![text],
        None => circuits.iter().map(blif::write).collect(),
    };
    let pairs = plan
        .names
        .iter()
        .enumerate()
        .flat_map(|(index, _)| plan.seeds.iter().map(move |&seed| (index, seed)))
        .chain(plan.extra_seeds.iter().copied());
    let jobs = pairs
        .map(|(index, seed)| Job {
            key: format!("{}/{}/seed={seed}", plan.names[index], plan.tag),
            circuit: index,
            config: plan.config.clone().with_seed(seed),
        })
        .collect();
    Batch {
        kind: plan.kind,
        circuits,
        jobs,
        setup,
        blif,
    }
}

/// Whether `estimate` met its accuracy target.
fn met_target(kind: Kind, config: &DipeConfig, estimate: &Estimate) -> bool {
    match kind {
        Kind::Scalar => estimate
            .relative_half_width
            .is_some_and(|rhw| rhw <= config.relative_error),
        Kind::Breakdown => estimate
            .node_diagnostics()
            .is_some_and(|node| node.node_decision.satisfied),
    }
}

/// Results of passes of one kind (traced or not).
#[derive(Default)]
struct Passes {
    /// Seconds of each pass: the sum of its estimates' latencies.
    wall_s: Vec<f64>,
    /// Each pass's estimates.
    timed: Vec<Vec<Timed>>,
    cycles: u64,
    jobs: u64,
    failed: u64,
    peak_rss_mb: Vec<f64>,
}

fn run_pass(
    batch: &Batch,
    order: &[usize],
    golden: &mut Golden,
    mut phases: Option<&mut PhaseTotals>,
    out: &mut Passes,
) {
    let estimator = estimator(batch.kind);
    let model = InputModel::uniform();
    reset_peak_rss();
    let mut timed = Vec::new();
    for &index in order {
        let job = &batch.jobs[index];
        let circuit = &batch.circuits[job.circuit];
        // Traced passes are not scaled, so they skip the kernel.
        let kernel_s = phases.is_none().then(crate::util::reference_kernel);
        let started = Instant::now();
        let result = match phases.as_deref_mut() {
            Some(totals) => run_phased(estimator.as_ref(), circuit, &job.config, &model, totals),
            None => estimator
                .start(circuit, &job.config, &model, 0)
                .and_then(dipe::run_to_completion),
        };
        timed.push(Timed {
            compute_s: secs(started),
            other_s: 0.0,
            kernel_s,
        });
        out.jobs += 1;
        match result {
            Ok(estimate) => {
                out.cycles += estimate.cycle_counts.total();
                let ok = met_target(batch.kind, &job.config, &estimate)
                    & golden.check(&job.key, Bits::of(&estimate));
                if !ok {
                    out.failed += 1;
                }
            }
            Err(error) => {
                eprintln!("perfbench: {} failed: {error}", job.key);
                out.failed += 1;
            }
        }
    }
    out.peak_rss_mb.push(peak_rss_mb());
    out.wall_s.push(timed.iter().map(|t| t.compute_s).sum());
    out.timed.push(timed);
}

fn pass_order(jobs: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).collect();
    shuffle(&mut order, seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    order
}

/// Runs one batch workload as `opts` asks.
pub fn run(opts: &RunOptions) -> Outcome {
    if opts.record {
        let mut golden = Golden::load(&opts.workload, true);
        for smoke in [true, false] {
            let batch = build(&plan(&opts.workload, smoke), 1, 0.0);
            let order: Vec<usize> = (0..batch.jobs.len()).collect();
            let mut passes = Passes::default();
            run_pass(&batch, &order, &mut golden, None, &mut passes);
            eprintln!(
                "perfbench: recorded {} estimates (smoke={smoke}) in {:.2} s",
                passes.jobs, passes.wall_s[0]
            );
        }
        golden.write().expect("golden file is writable");
        return Outcome::default();
    }
    let plan = plan(&opts.workload, opts.smoke);
    let mut golden = Golden::load(&opts.workload, false);
    let batch = if opts.trace {
        build(&plan, 1, 0.0)
    } else {
        let budget_s = if opts.smoke { 0.0 } else { SETUP_SECONDS };
        build(&plan, SETUP_MIN_REPS, budget_s)
    };
    let mut plain = Passes::default();
    let mut traced = Passes::default();
    let mut totals = PhaseTotals::default();
    opts.run_passes(|pass, with_trace| {
        let order = pass_order(batch.jobs.len(), opts.seed, pass);
        if with_trace {
            run_pass(&batch, &order, &mut golden, Some(&mut totals), &mut traced);
        } else {
            run_pass(&batch, &order, &mut golden, None, &mut plain);
        }
    });
    let mut outcome = Outcome {
        attempted: plain.jobs + traced.jobs,
        failed: plain.failed + traced.failed,
        checks_ok: true,
        ..Outcome::default()
    };
    if !opts.trace {
        outcome.samples = Samples {
            passes: plain.timed.into_iter().map(|jobs| vec![jobs]).collect(),
            cycles: plain.cycles,
            setup: batch.setup,
            peak_rss_mb: plain.peak_rss_mb,
        };
        return outcome;
    }

    // Traced run: phase attribution, the layer probes and, on the Table 1
    // circuits, forced-backend estimates against the `auto` golden bits.
    let traced_passes = traced.wall_s.len() as f64;
    let traced_wall: f64 = traced.wall_s.iter().sum();
    let coverage = totals.attributed_s() / traced_wall;
    if totals.phase_mismatches > 0 || (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        eprintln!(
            "perfbench: phase attribution check failed: coverage {coverage:.4}, {} phase mismatches",
            totals.phase_mismatches
        );
        outcome.checks_ok = false;
    }
    let per_pass = |v: f64| v / traced_passes;
    outcome
        .metrics
        .extend(phase_metrics(&totals, traced_passes));
    outcome.metrics.push(("dipe.phase_coverage", coverage));
    if batch.kind == Kind::Breakdown {
        let pooled = totals.pooled_samples as f64;
        outcome.metrics.extend([
            ("shards.rounds", per_pass(totals.rounds as f64)),
            (
                "shards.round_interval_ms_p50",
                median(&totals.round_intervals_ms),
            ),
            (
                "shards.useful_sample_fraction",
                pooled / (pooled + totals.discarded_samples as f64),
            ),
            (
                "shards.cpu_per_wall",
                totals.sampling_cpu_s / totals.sampling_wall_s,
            ),
        ]);
    }
    outcome.metrics.push((
        "telemetry.tracing_overhead",
        tracing_overhead(&plain.wall_s, &traced.wall_s),
    ));
    outcome
        .metrics
        .push(("bench.latency_samples", plain.jobs as f64));

    let budget_s = if opts.smoke { 0.002 } else { 0.02 };
    let cases: Vec<(&Circuit, DipeConfig)> = batch
        .circuits
        .iter()
        .map(|c| (c, plan.config.clone().with_seed(plan.seeds[0])))
        .collect();
    let netlist = netlist_probe(&batch.blif, plan.config.delay_model, 3);
    let sim = sim_probe(&cases, budget_s, batch.kind == Kind::Breakdown);
    if sim.bit_mismatches > 0 {
        eprintln!(
            "perfbench: {} cases where a forced measurement backend changed power bits",
            sim.bit_mismatches
        );
        outcome.checks_ok = false;
    }
    push_metrics(&mut outcome.metrics, &netlist, &sim);

    if opts.workload == "table1_scalar" {
        let (attempted, failed) = forced_backend_check(&batch, &mut golden);
        outcome.attempted += attempted;
        outcome.failed += failed;
    }
    outcome
}

/// Per-pass phase metrics from `totals` over `passes` traced passes.
pub fn phase_metrics(totals: &PhaseTotals, passes: f64) -> Vec<(&'static str, f64)> {
    let per = |v: f64| v / passes;
    vec![
        ("dipe.start_s", per(totals.start_s)),
        ("dipe.warmup_s", per(totals.warmup_s)),
        ("dipe.warmup_cycles", per(totals.warmup_cycles as f64)),
        ("dipe.interval_selection_s", per(totals.interval_s)),
        ("dipe.interval_trials", per(totals.interval_trials as f64)),
        ("dipe.interval_cycles", per(totals.interval_cycles as f64)),
        ("dipe.sampling_s", per(totals.sampling_s)),
        ("dipe.samples", per(totals.samples as f64)),
        ("dipe.stopping_evals", per(totals.stopping_evals as f64)),
    ]
}

/// Re-runs the first-seed estimate of every circuit with each concrete
/// measurement backend forced; each must reproduce the `auto` golden bits.
fn forced_backend_check(batch: &Batch, golden: &mut Golden) -> (u64, u64) {
    let estimator = estimator(batch.kind);
    let mut attempted = 0;
    let mut failed = 0;
    for mode in [MeasureMode::EventDriven, MeasureMode::TimeSliced] {
        for job in batch.jobs.iter().filter(|job| job.key.ends_with("seed=1")) {
            attempted += 1;
            let config = job.config.clone().with_measure_mode(mode);
            let result = estimator
                .start(
                    &batch.circuits[job.circuit],
                    &config,
                    &InputModel::uniform(),
                    0,
                )
                .and_then(dipe::run_to_completion);
            let ok = match result {
                Ok(estimate) => golden.check(&job.key, Bits::of(&estimate)),
                Err(error) => {
                    eprintln!("perfbench: {} with {} failed: {error}", job.key, mode.id());
                    false
                }
            };
            if !ok {
                eprintln!("perfbench: {} differs under {}", job.key, mode.id());
                failed += 1;
            }
        }
    }
    (attempted, failed)
}
