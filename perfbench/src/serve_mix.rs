//! `serve_mix`: one `dipe-serve` server with 2 worker permits on loopback,
//! driven closed-loop by 2 client connections from this process.
//!
//! Each pass starts a fresh server (its caches empty), lets both clients
//! work through their fixed job lists, and shuts it down. A client's list
//! opens with a base job on its named circuit (served cold), followed — in
//! an order shuffled by the workload seed — by:
//!
//! * repeats of the base (circuit, seed) stream at varied accuracy, served
//!   from the warm tier, which skips warm-up and interval selection;
//! * fresh seeds on the same circuit, served from the compiled tier;
//! * an inline BLIF netlist of generated gates (3500 for one client, 5000
//!   for the other), new to the server, so served cold: parse, compile and
//!   the whole estimate.
//!
//! Each client owns its circuits, so the tier of every job is the same in
//! every pass and every run. Both clients submit their inline netlist at
//! the same moment. Every result is checked against golden bits.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

use dipe::DipeEstimator;
use dipe_serve::{CachePath, CircuitRef, Client, JobResult, JobSpec, Server, ServerConfig};
use netlist::generator::{generate, GeneratorConfig};
use netlist::{blif, DelayModel, NetlistFormat};

use crate::batch::phase_metrics;
use crate::golden::{Bits, Golden};
use crate::phases::{event_name, field_u64, run_phased, PhaseTotals, COVERAGE_TOLERANCE};
use crate::probes::{netlist_probe, push_metrics, sim_probe};
use crate::util::{median, peak_rss_mb, reset_peak_rss, secs, shuffle, tracing_overhead};
use crate::{Outcome, RunOptions, Samples, Timed};

/// Client connections driving load (and worker permits of the server).
pub const CLIENTS: usize = 2;

/// Server starts timed back to back, after a reference-kernel run, before
/// each untraced pass. One start is a tenth of a millisecond of socket
/// calls, thread spawns and wake-ups, with no timer waits, so it is compute
/// and `setup_s` is the median of many, spread over the whole run.
const SETUP_REPS_PER_PASS: usize = 64;

/// Estimator seed of each client's base stream.
const BASE_SEED: u64 = 7;

struct ServeJob {
    key: String,
    spec: JobSpec,
}

/// The fixed job lists of both clients, before shuffling.
struct Mix {
    clients: Vec<Vec<ServeJob>>,
    /// BLIF text of every cold netlist.
    cold_blif: Vec<String>,
}

fn build_mix(smoke: bool) -> Mix {
    let named = if smoke {
        ["s208", "s298"]
    } else {
        ["s1494", "s5378"]
    };
    // Warm jobs are two thirds of the mix and the inline netlists a
    // fifteenth, so the median latency falls inside the warm tier and the
    // 90th percentile among the named circuits' cold and compiled-tier
    // jobs, whose time is interval selection and sampling. The inline jobs
    // lie above it: most of their latency is spent outside the server's
    // job timer, carrying the netlist text.
    let accuracies: &[f64] = if smoke {
        &[0.1, 0.12, 0.15]
    } else {
        &[0.05, 0.055, 0.06, 0.065, 0.07, 0.08, 0.09, 0.1, 0.12, 0.15]
    };
    let fresh_seeds = if smoke { 1 } else { 3 };
    // (index, gates) of each client's inline netlists; the index seeds the
    // generator.
    let cold_gates: [&[(usize, usize)]; 2] = if smoke {
        [&[(0, 500)], &[(0, 500)]]
    } else {
        [&[(1, 3500)], &[(2, 5000)]]
    };
    let mut clients = Vec::new();
    let mut cold_blif = Vec::new();
    for (c, circuit) in named.iter().enumerate() {
        let job = |eps: f64, seed: u64| ServeJob {
            key: format!("{circuit}/fanout/eps={eps}/seed={seed}"),
            spec: JobSpec::named(circuit)
                .with_seed(seed)
                .with_accuracy(eps, 0.99),
        };
        let mut jobs = vec![job(0.05, BASE_SEED)];
        for &eps in accuracies {
            jobs.push(job(eps, BASE_SEED));
        }
        for k in 1..=fresh_seeds {
            jobs.push(job(0.05, BASE_SEED + k));
        }
        for &(k, gates) in cold_gates[c] {
            let name = format!("cold{c}_{k}_g{gates}");
            let circuit = generate(
                &GeneratorConfig::new(name.clone(), 32, 32, 96, gates).with_seed(100 + k as u64),
            )
            .expect("valid generator configuration");
            let source = blif::write(&circuit);
            // Protocol defaults (fanout delays, 5 % / 0.99) on an inline
            // netlist.
            let mut spec = JobSpec::named(&name).with_seed(BASE_SEED);
            spec.circuit = CircuitRef::Inline {
                name: name.clone(),
                source: source.clone(),
                format: NetlistFormat::Blif,
            };
            jobs.push(ServeJob {
                key: format!("{name}/fanout/eps=0.05/seed={BASE_SEED}"),
                spec,
            });
            cold_blif.push(source);
        }
        clients.push(jobs);
    }
    Mix { clients, cold_blif }
}

/// The order client `c` submits its jobs in, in pass `pass`: the base job
/// first, the rest shuffled.
fn client_order(jobs: usize, seed: u64, pass: u64, client: usize) -> Vec<usize> {
    let mut rest: Vec<usize> = (1..jobs).collect();
    shuffle(
        &mut rest,
        seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (client as u64) << 32,
    );
    std::iter::once(0).chain(rest).collect()
}

struct Record {
    key: String,
    /// Whether the job carries its netlist inline.
    inline: bool,
    relative_error: f64,
    latency_s: f64,
    result: Result<JobResult, String>,
    /// With tracing: whether the job's own trace has a `session_done` line
    /// and every such line carries the result's bits.
    trace_agrees: bool,
}

#[derive(Default)]
struct Passes {
    wall_s: Vec<f64>,
    /// Per pass, per client: its jobs.
    clients: Vec<Vec<Vec<Timed>>>,
    records: Vec<Record>,
    peak_rss_mb: Vec<f64>,
}

/// A served job as timed work, scaled by `kernel_s`, the kernel time
/// measured before its pass. The server-side wall time is compute. So is
/// the rest of an inline-netlist job's latency, which is spent encoding,
/// sending and decoding the netlist text (it grows with host slowness like
/// the server time does); the rest of any other job's latency is timer and
/// wake-up waits, reported as measured.
fn timed(record: &Record, kernel_s: f64) -> Timed {
    let server_s = record
        .result
        .as_ref()
        .map_or(0.0, |res| res.wall_seconds)
        .min(record.latency_s);
    let compute_s = if record.inline {
        record.latency_s
    } else {
        server_s
    };
    Timed {
        compute_s,
        other_s: record.latency_s - compute_s,
        kernel_s: Some(kernel_s),
    }
}

/// A running server on an ephemeral loopback port.
struct Running {
    addr: SocketAddr,
    control: Client,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_server(opts: &RunOptions) -> (Running, f64) {
    let started = Instant::now();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS,
            slice_cycles: 10_000,
            checkpoint_dir: opts.scratch.join("serve-checkpoints"),
            idle_timeout_seconds: 0.0,
            quiet: true,
        },
    )
    .expect("bind a loopback port");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let mut control = Client::connect(addr).expect("connect to the local server");
    control.ping().expect("the server answers ping");
    (
        Running {
            addr,
            control,
            thread,
        },
        secs(started),
    )
}

fn stop_server(mut running: Running) {
    running
        .control
        .shutdown()
        .expect("the server accepts shutdown");
    drop(running.control);
    running
        .thread
        .join()
        .expect("server thread panicked")
        .expect("server loop");
}

/// One client's closed loop over `jobs`. Both clients submit their inline
/// netlist at the same moment (`inline_barrier`), so that the server always
/// decodes and compiles the two together: the pass's memory peak and the
/// cold jobs' latency then do not depend on how the shuffled orders line up.
fn drive(
    addr: SocketAddr,
    jobs: &[&ServeJob],
    traced: bool,
    inline_barrier: &Barrier,
) -> Vec<Record> {
    let mut client = Client::connect(addr).expect("connect to the local server");
    let mut records = Vec::new();
    for job in jobs {
        let inline = matches!(job.spec.circuit, CircuitRef::Inline { .. });
        if inline {
            inline_barrier.wait();
        }
        let started = Instant::now();
        let submitted = client.submit(&job.spec);
        let result = submitted.clone().and_then(|id| client.wait_result(id));
        let latency_s = secs(started);
        let mut trace_agrees = true;
        if let (true, Ok(id), Ok(result)) = (traced, &submitted, &result) {
            let (lines, _) = client.trace(*id).expect("trace RPC");
            let done: Vec<&String> = lines
                .iter()
                .filter(|l| event_name(l) == "session_done")
                .collect();
            trace_agrees = !done.is_empty()
                && done.iter().all(|line| {
                    field_u64(line, "mean_power_w_bits") == Some(result.mean_power_w.to_bits())
                });
        }
        records.push(Record {
            key: job.key.clone(),
            inline,
            relative_error: job.spec.relative_error,
            latency_s,
            result,
            trace_agrees,
        });
    }
    records
}

/// One pass: fresh server, both clients through their lists, shutdown.
fn run_pass(opts: &RunOptions, mix: &Mix, pass: u64, traced: bool, out: &mut Passes) {
    let kernel_s = crate::util::reference_kernel();
    reset_peak_rss();
    let (running, _) = start_server(opts);
    let addr = running.addr;
    let orders: Vec<Vec<&ServeJob>> = mix
        .clients
        .iter()
        .enumerate()
        .map(|(c, jobs)| {
            client_order(jobs.len(), opts.seed, pass, c)
                .into_iter()
                .map(|i| &jobs[i])
                .collect()
        })
        .collect();
    let inline_barrier = Barrier::new(CLIENTS);
    let pass_start = Instant::now();
    let records: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .map(|jobs| scope.spawn(|| drive(addr, jobs, traced, &inline_barrier)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.wall_s.push(secs(pass_start));
    out.clients.push(
        records
            .iter()
            .map(|client| client.iter().map(|r| timed(r, kernel_s)).collect())
            .collect(),
    );
    out.records.extend(records.into_iter().flatten());
    stop_server(running);
    out.peak_rss_mb.push(peak_rss_mb());
}

fn check(record: &Record, golden: &mut Golden) -> bool {
    match &record.result {
        Ok(result) => {
            let bits = Bits {
                mean_power_w: result.mean_power_w.to_bits(),
                sample_size: result.sample_size,
            };
            let met = result
                .relative_half_width
                .is_some_and(|rhw| rhw <= record.relative_error);
            met & golden.check(&record.key, bits) & record.trace_agrees
        }
        Err(message) => {
            eprintln!("perfbench: serve job {} failed: {message}", record.key);
            false
        }
    }
}

fn tier_latencies_ms(records: &[Record], tier: CachePath) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.result.as_ref().is_ok_and(|res| res.cache == tier))
        .map(|r| r.latency_s * 1e3)
        .collect()
}

/// Runs `serve_mix` as `opts` asks.
pub fn run(opts: &RunOptions) -> Outcome {
    if opts.record {
        let mut golden = Golden::load(&opts.workload, true);
        for smoke in [true, false] {
            let mut passes = Passes::default();
            run_pass(opts, &build_mix(smoke), 0, false, &mut passes);
            for record in &passes.records {
                assert!(check(record, &mut golden), "{} did not finish", record.key);
            }
        }
        golden.write().expect("golden file is writable");
        return Outcome::default();
    }
    let mix = build_mix(opts.smoke);
    let mut golden = Golden::load(&opts.workload, false);
    let mut setup = Vec::new();
    let mut plain = Passes::default();
    let mut traced = Passes::default();
    opts.run_passes(|pass, with_trace| {
        if !opts.trace {
            let kernel_s = crate::util::reference_kernel();
            for _ in 0..SETUP_REPS_PER_PASS {
                let (running, seconds) = start_server(opts);
                setup.push(Timed {
                    compute_s: seconds,
                    other_s: 0.0,
                    kernel_s: Some(kernel_s),
                });
                stop_server(running);
            }
        }
        let out = if with_trace { &mut traced } else { &mut plain };
        run_pass(opts, &mix, pass, with_trace, out);
    });
    let mut outcome = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    for record in plain.records.iter().chain(&traced.records) {
        outcome.attempted += 1;
        if !check(record, &mut golden) {
            outcome.failed += 1;
        }
    }
    if !opts.trace {
        let results = || plain.records.iter().filter_map(|r| r.result.as_ref().ok());
        outcome.samples = Samples {
            passes: plain.clients,
            cycles: results().map(|res| res.executed_cycles).sum(),
            setup,
            peak_rss_mb: plain.peak_rss_mb,
        };
        return outcome;
    }

    // Traced run.
    let plain_jobs = plain.records.len();
    let passes = (plain.wall_s.len() + traced.wall_s.len()) as f64;
    let all_records: Vec<Record> = plain.records.into_iter().chain(traced.records).collect();
    let results: Vec<&JobResult> = all_records
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    let count = |tier: CachePath| tier_latencies_ms(&all_records, tier).len() as f64 / passes;
    let accounted: u64 = results
        .iter()
        .map(|r| r.zero_delay_cycles + r.measured_cycles)
        .sum();
    let executed: u64 = results.iter().map(|r| r.executed_cycles).sum();
    let server_ms: Vec<f64> = results.iter().map(|r| r.wall_seconds * 1e3).collect();
    let queue_wire_ms: Vec<f64> = all_records
        .iter()
        .filter_map(|r| {
            r.result
                .as_ref()
                .ok()
                .map(|res| (r.latency_s - res.wall_seconds) * 1e3)
        })
        .collect();
    outcome.metrics.extend([
        ("serve.jobs.cold", count(CachePath::Cold)),
        ("serve.jobs.compiled", count(CachePath::Compiled)),
        ("serve.jobs.warm", count(CachePath::Warm)),
        (
            "serve.p50_ms.cold",
            median(&tier_latencies_ms(&all_records, CachePath::Cold)),
        ),
        (
            "serve.p50_ms.compiled",
            median(&tier_latencies_ms(&all_records, CachePath::Compiled)),
        ),
        (
            "serve.p50_ms.warm",
            median(&tier_latencies_ms(&all_records, CachePath::Warm)),
        ),
        ("serve.server_wall_ms_p50", median(&server_ms)),
        ("serve.queue_wire_ms_p50", median(&queue_wire_ms)),
        (
            "serve.executed_cycle_fraction",
            executed as f64 / accounted as f64,
        ),
        ("serve.ping_rtt_ms", ping_rtt_ms(opts)),
        ("bench.latency_samples", plain_jobs as f64),
        (
            "telemetry.tracing_overhead",
            tracing_overhead(&plain.wall_s, &traced.wall_s),
        ),
    ]);

    // The non-warm jobs replayed in-process with phase attribution: where
    // a cold or compiled job's time goes. Their bits must match the served
    // ones.
    let mut totals = PhaseTotals::default();
    let mut replay_s = 0.0;
    let mut circuits = Vec::new();
    let mut replayed = std::collections::BTreeSet::new();
    for job in mix.clients.iter().flatten() {
        if job.spec.relative_error != 0.05 || !replayed.insert(job.key.clone()) {
            continue;
        }
        let circuit = job.spec.circuit.load().expect("mix circuits load");
        let model = job.spec.parsed_input_model().expect("mix input model");
        outcome.attempted += 1;
        let started = Instant::now();
        let replayed = run_phased(
            &DipeEstimator::new(),
            &circuit,
            &job.spec.config(),
            &model,
            &mut totals,
        );
        replay_s += secs(started);
        let ok = match replayed {
            Ok(estimate) => golden.check(&job.key, Bits::of(&estimate)),
            Err(error) => {
                eprintln!("perfbench: replay of {} failed: {error}", job.key);
                false
            }
        };
        if !ok {
            outcome.failed += 1;
        }
        if !circuits
            .iter()
            .any(|(c, _): &(netlist::Circuit, _)| c.name() == circuit.name())
        {
            circuits.push((circuit, job.spec.config()));
        }
    }
    let coverage = totals.attributed_s() / replay_s;
    if totals.phase_mismatches > 0 || (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        eprintln!(
            "perfbench: phase attribution check failed: coverage {coverage:.4}, {} phase mismatches",
            totals.phase_mismatches
        );
        outcome.checks_ok = false;
    }
    outcome.metrics.extend(phase_metrics(&totals, 1.0));
    outcome.metrics.push(("dipe.phase_coverage", coverage));

    let budget_s = if opts.smoke { 0.002 } else { 0.02 };
    let cases: Vec<_> = circuits.iter().map(|(c, cfg)| (c, cfg.clone())).collect();
    let netlist = netlist_probe(&mix.cold_blif, DelayModel::default(), 3);
    let sim = sim_probe(&cases, budget_s, false);
    if sim.bit_mismatches > 0 {
        outcome.checks_ok = false;
    }
    push_metrics(&mut outcome.metrics, &netlist, &sim);
    outcome
}

/// Median round trip of 50 `ping`s to an idle server.
fn ping_rtt_ms(opts: &RunOptions) -> f64 {
    let (mut running, _) = start_server(opts);
    let mut rtts = Vec::new();
    for _ in 0..50 {
        let started = Instant::now();
        running.control.ping().expect("the server answers ping");
        rtts.push(secs(started) * 1e3);
    }
    stop_server(running);
    median(&rtts)
}
