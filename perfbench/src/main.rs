//! `perfbench` — the time-to-estimate benchmark of the DIPE reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--scratch <dir>] [--record-golden]
//! ```
//!
//! One run measures one workload for about `--seconds` seconds and prints,
//! as its last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A provenance line (host, toolchain, source revision, seed)
//! precedes it. `--smoke` shrinks every workload to a few seconds.
//! `perfbench/run.py` builds this binary and runs it.

mod batch;
mod golden;
mod phases;
mod probes;
mod serve_mix;
mod spec;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// What one invocation was asked to do.
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub record: bool,
    /// Directory for files the run may write (the server's checkpoint
    /// directory; nothing is written there by the workloads as they are).
    pub scratch: PathBuf,
}

impl RunOptions {
    /// Calls `pass(index, traced)` until `seconds` have passed. Untraced
    /// runs trace nothing; traced runs alternate untraced and traced passes
    /// and run at least one of each, so the two can be compared.
    pub fn run_passes(&self, mut pass: impl FnMut(u64, bool)) {
        let started = std::time::Instant::now();
        for index in 0.. {
            pass(index, self.trace && index % 2 == 1);
            let enough = !self.trace || index >= 1;
            if enough && util::secs(started) >= self.seconds {
                break;
            }
        }
    }
}

/// The measured result of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when one of the benchmark's own consistency checks failed.
    pub checks_ok: bool,
    /// Per-layer metrics (traced runs).
    pub metrics: Vec<(&'static str, f64)>,
    /// What the end-to-end metrics are computed from (untraced runs).
    pub samples: Samples,
}

/// One timed piece of work of an untraced run: an estimate, a served job
/// or a set-up repetition.
#[derive(Clone, Copy, Default)]
pub struct Timed {
    /// Seconds spent computing: all of a local estimate or set-up, the
    /// server-side wall time of a served job.
    pub compute_s: f64,
    /// Other seconds: a served job's queueing, wire and wake-up time.
    pub other_s: f64,
    /// Seconds of the reference-kernel run just before the work, where
    /// there is one; otherwise the run's median kernel time scales it.
    pub kernel_s: Option<f64>,
}

/// Raw end-to-end measurements of an untraced run.
#[derive(Default)]
pub struct Samples {
    /// Per pass over the workload's list, per client driving it (a batch
    /// workload has one), that client's jobs. A pass lasts as long as its
    /// slowest client takes over its jobs.
    pub passes: Vec<Vec<Vec<Timed>>>,
    /// Simulated cycles over all passes.
    pub cycles: u64,
    /// Set-up repetitions.
    pub setup: Vec<Timed>,
    /// Resident-memory high-water mark of each pass, in MiB. The metric is
    /// the first pass's: later passes inherit memory the allocator kept
    /// from earlier passes' threads (per-thread arenas, cached thread
    /// stacks), an amount that depends on thread scheduling.
    pub peak_rss_mb: Vec<f64>,
}

const USAGE: &str =
    "usage: perfbench --workload <table1_scalar|breakdown_shards2|serve_mix|megagate_blif> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--scratch <dir>] [--record-golden]";

fn parse_args() -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: String::new(),
        seed: 1,
        seconds: spec::run_seconds(),
        trace: false,
        smoke: false,
        record: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--scratch" => opts.scratch = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            "--record-golden" => opts.record = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !spec::is_workload(&opts.workload) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    Ok(opts)
}

/// Threads (or client connections) the workload's load generator uses.
fn load_threads(workload: &str) -> usize {
    match workload {
        "breakdown_shards2" => 2,
        "serve_mix" => serve_mix::CLIENTS,
        _ => 1,
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = load_threads(&opts.workload);
    if threads > util::host_cpus() {
        eprintln!(
            "perfbench: {} drives load from {threads} threads but this host has {} CPU(s); refusing to run",
            opts.workload,
            util::host_cpus()
        );
        return ExitCode::from(2);
    }
    println!(
        "{}",
        util::provenance_json(&opts.workload, opts.seed, opts.trace, opts.smoke)
    );
    for _ in 0..5 {
        util::reference_kernel();
    }
    let mut outcome = if batch::WORKLOADS.contains(&opts.workload.as_str()) {
        batch::run(&opts)
    } else {
        serve_mix::run(&opts)
    };
    if opts.record {
        eprintln!("perfbench: golden bits of {} recorded", opts.workload);
        return ExitCode::SUCCESS;
    }
    util::reference_kernel();
    let kernel_s = util::reference_kernel_median_s();
    if opts.trace {
        outcome
            .metrics
            .push(("bench.reference_kernel_ms", kernel_s * 1e3));
    } else {
        println!("{}", end_to_end(&mut outcome, kernel_s));
    }
    println!("{}", result_line(&opts, &mut outcome));
    ExitCode::SUCCESS
}

/// Computes the end-to-end metrics from `samples` and returns a line
/// recording the same metrics from raw wall time, with the run's median
/// kernel time and scale.
///
/// On a shared virtual machine host speed drifts: the same `table1_scalar`
/// pass has measured 2.7 s and 4.0 s within half an hour on a 2-vCPU Xeon
/// VM, and a set-up that takes 17 ms can take 26 ms for the next second,
/// which no amount of repetition inside one run averages out. Every run
/// therefore times a fixed reference kernel (`util::reference_kernel`) just
/// before each estimate, block of set-up repetitions or served pass, and
/// reports compute time in *reference seconds*: compute seconds ×
/// `REFERENCE_KERNEL_S / kernel seconds`, what the run would have measured
/// on a host where the kernel takes exactly that long. A served job is
/// scaled by its pass's kernel time. Only compute time is scaled: a served
/// job's queueing, wire and wake-up time, which includes timer waits, is
/// reported as measured.
fn end_to_end(outcome: &mut Outcome, kernel_s: f64) -> String {
    let s = &outcome.samples;
    let compute = |scaled: bool| -> Vec<(&'static str, f64)> {
        let seconds = |t: &Timed| match scaled {
            true => {
                t.compute_s * util::REFERENCE_KERNEL_S / t.kernel_s.unwrap_or(kernel_s) + t.other_s
            }
            false => t.compute_s + t.other_s,
        };
        let passes: Vec<f64> = s
            .passes
            .iter()
            .map(|clients| {
                clients
                    .iter()
                    .map(|jobs| jobs.iter().map(seconds).sum::<f64>())
                    .fold(0.0, f64::max)
            })
            .collect();
        let wall: f64 = passes.iter().sum();
        let latencies_ms: Vec<f64> = s
            .passes
            .iter()
            .flatten()
            .flatten()
            .map(|t| seconds(t) * 1e3)
            .collect();
        let setup: Vec<f64> = s.setup.iter().map(seconds).collect();
        vec![
            ("time_to_estimate_s", util::median(&passes)),
            ("cycles_per_s", s.cycles as f64 / wall),
            ("jobs_per_s", latencies_ms.len() as f64 / wall),
            ("job_p50_ms", util::median(&latencies_ms)),
            ("job_p90_ms", util::percentile(&latencies_ms, 0.9)),
            ("setup_s", util::median(&setup)),
            ("peak_rss_mb", s.peak_rss_mb.first().copied().unwrap_or(0.0)),
        ]
    };
    let raw: Vec<String> = compute(false)
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    eprintln!("perfbench: {} passes", s.passes.len());
    outcome.metrics = compute(true);
    format!(
        "{{\"host\": {{\"reference_kernel_s\": {kernel_s}, \"scale\": {}, \"raw\": {{{}}}}}}}",
        util::REFERENCE_KERNEL_S / kernel_s,
        raw.join(", ")
    )
}

/// The final result line. Every metric of the run's kind is present: a
/// layer the workload does not exercise reads 0.
fn result_line(opts: &RunOptions, outcome: &mut Outcome) -> String {
    let section = if opts.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut fields = Vec::new();
    for (name, unit) in spec::entries(section) {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, value)) => value,
            None if opts.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                outcome.checks_ok = false;
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite");
            outcome.checks_ok = false;
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    // A run that attempted nothing counts as one failed attempt.
    let (attempted, failed) = match outcome.attempted {
        0 => (1, 1),
        n => (n, outcome.failed),
    };
    let correct = outcome.checks_ok && failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
