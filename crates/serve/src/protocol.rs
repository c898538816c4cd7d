//! The newline-delimited-JSON wire protocol.
//!
//! Every message is one JSON object on one line, with a `type` field. The
//! client → server direction carries [`Request`]s; the server → client
//! direction carries two kinds of lines:
//!
//! * **responses** — exactly one per request, in request order;
//! * **events** ([`Event`]) — asynchronous per-job lines (`progress`,
//!   `result`, `failed`) streamed to the connection that submitted the job,
//!   interleaved between responses.
//!
//! A client tells them apart by `type` alone (see [`Event::from_json`]
//! returning `None` for non-event types), so it can pump one socket for both.
//!
//! | request      | fields                          | response type    |
//! |--------------|---------------------------------|------------------|
//! | `submit`     | `job` (job-spec object)         | `accepted`       |
//! | `status`     | `job_id`                        | `status`         |
//! | `cancel`     | `job_id`                        | `ok`             |
//! | `checkpoint` | `job_id`, optional `stop`       | `checkpointed`   |
//! | `resume`     | `path` (checkpoint file)        | `accepted`       |
//! | `stats`      | —                               | `stats`          |
//! | `metrics`    | —                               | `metrics`        |
//! | `trace`      | `job_id`                        | `trace`          |
//! | `ping`       | —                               | `pong`           |
//! | `shutdown`   | optional `drain_seconds`        | `bye`            |
//!
//! Any malformed or failed request yields an `error` response instead. See
//! `docs/ARCHITECTURE.md` for the full message table with examples.
//!
//! Lines are bounded: a line longer than [`MAX_LINE_BYTES`] draws one
//! `error` line and the connection is closed.

use std::io::{BufRead, ErrorKind};

use crate::json::Json;
use crate::spec::JobSpec;

/// The longest line, newline excluded, that the server, the worker and the
/// coordinator read: 64 MiB, far above the inline netlists jobs carry. A
/// peer that never sends a newline therefore cannot grow a reader's memory
/// without bound.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// How a [`read_line_capped`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineEnd {
    /// The buffer ends with the line's newline.
    Newline,
    /// The peer closed the connection; the buffer holds whatever it sent
    /// after its last newline.
    Eof,
    /// The line is longer than the cap; the buffer holds a prefix of it.
    TooLong,
}

/// Appends bytes from `reader` to `line` up to and including the next
/// newline, never letting the line's content exceed `cap` bytes. A read
/// error (a socket read timeout included) leaves what was read so far in
/// `line`, so the next call continues the same line.
///
/// # Errors
///
/// Propagates read errors other than [`ErrorKind::Interrupted`].
pub(crate) fn read_line_capped<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineEnd> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(error) if error.kind() == ErrorKind::Interrupted => continue,
            Err(error) => return Err(error),
        };
        if available.is_empty() {
            return Ok(LineEnd::Eof);
        }
        let newline = available.iter().position(|&byte| byte == b'\n');
        let content = newline.unwrap_or(available.len());
        if line.len() + content > cap {
            return Ok(LineEnd::TooLong);
        }
        let taken = newline.map_or(content, |at| at + 1);
        line.extend_from_slice(&available[..taken]);
        reader.consume(taken);
        if newline.is_some() {
            return Ok(LineEnd::Newline);
        }
    }
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a new estimation job.
    Submit {
        /// The job to run.
        job: JobSpec,
    },
    /// Query a job's current state.
    Status {
        /// The job to query.
        job_id: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Snapshot a running job's exact state to disk at the next slice
    /// boundary at or after it becomes checkpointable.
    Checkpoint {
        /// The job to snapshot.
        job_id: u64,
        /// Kill the job after the snapshot is written (the
        /// "checkpoint-then-resume-elsewhere" flow). Default `false`: the job
        /// keeps running.
        stop: bool,
    },
    /// Resume a job from a checkpoint file previously written by
    /// [`Request::Checkpoint`].
    Resume {
        /// Path of the checkpoint file on the server's filesystem.
        path: String,
    },
    /// Server and cache statistics.
    Stats,
    /// Prometheus-style text exposition of the server's runtime metrics
    /// (the live-dashboard endpoint; same underlying counters as `stats`).
    Metrics,
    /// The buffered estimation-trace lines of a job (see the `telemetry`
    /// crate's JSONL schema). Available while the job is known to the
    /// server, including after it finished.
    Trace {
        /// The job whose trace buffer to fetch.
        job_id: u64,
    },
    /// Liveness probe.
    Ping,
    /// Stop accepting work and exit. With `drain_seconds`, in-flight jobs
    /// get that long to finish before the stragglers are cancelled; without
    /// it, running jobs are cancelled immediately (the legacy behaviour).
    /// The `bye` response reports how many jobs had to be cancelled.
    Shutdown {
        /// How long to wait for in-flight jobs before cancelling them.
        drain_seconds: Option<f64>,
    },
}

impl Request {
    /// Serialises to the wire form.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { job } => {
                Json::obj(vec![("type", Json::str("submit")), ("job", job.to_json())])
            }
            Request::Status { job_id } => Json::obj(vec![
                ("type", Json::str("status")),
                ("job_id", Json::u64(*job_id)),
            ]),
            Request::Cancel { job_id } => Json::obj(vec![
                ("type", Json::str("cancel")),
                ("job_id", Json::u64(*job_id)),
            ]),
            Request::Checkpoint { job_id, stop } => Json::obj(vec![
                ("type", Json::str("checkpoint")),
                ("job_id", Json::u64(*job_id)),
                ("stop", Json::Bool(*stop)),
            ]),
            Request::Resume { path } => Json::obj(vec![
                ("type", Json::str("resume")),
                ("path", Json::str(path.clone())),
            ]),
            Request::Stats => Json::obj(vec![("type", Json::str("stats"))]),
            Request::Metrics => Json::obj(vec![("type", Json::str("metrics"))]),
            Request::Trace { job_id } => Json::obj(vec![
                ("type", Json::str("trace")),
                ("job_id", Json::u64(*job_id)),
            ]),
            Request::Ping => Json::obj(vec![("type", Json::str("ping"))]),
            Request::Shutdown { drain_seconds } => {
                let mut fields = vec![("type", Json::str("shutdown"))];
                if let Some(seconds) = drain_seconds {
                    fields.push(("drain_seconds", Json::f64(*seconds)));
                }
                Json::obj(fields)
            }
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown types or missing fields
    /// (sent back as an `error` response).
    pub fn from_json(value: &Json) -> Result<Request, String> {
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request has no `type`")?;
        let job_id = || {
            value
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{kind}` needs a numeric `job_id`"))
        };
        match kind {
            "submit" => Ok(Request::Submit {
                job: JobSpec::from_json(value.get("job").ok_or("`submit` needs a `job` object")?)?,
            }),
            "status" => Ok(Request::Status { job_id: job_id()? }),
            "cancel" => Ok(Request::Cancel { job_id: job_id()? }),
            "checkpoint" => Ok(Request::Checkpoint {
                job_id: job_id()?,
                stop: value.get("stop").and_then(Json::as_bool).unwrap_or(false),
            }),
            "resume" => Ok(Request::Resume {
                path: value
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("`resume` needs a `path` string")?
                    .to_string(),
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "trace" => Ok(Request::Trace { job_id: job_id()? }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown {
                drain_seconds: value.get("drain_seconds").and_then(Json::as_f64),
            }),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

/// How a finished job's simulation work was seeded — which cache tier (if
/// any) it started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePath {
    /// Everything built from scratch.
    Cold,
    /// Compiled program + delay annotation reused; warm-up and interval
    /// selection still ran.
    Compiled,
    /// Warm checkpoint reused: parse, compile, warm-up *and* interval
    /// selection all skipped.
    Warm,
    /// Restored from an explicit checkpoint file (`resume` RPC).
    Resumed,
}

impl CachePath {
    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            CachePath::Cold => "cold",
            CachePath::Compiled => "compiled",
            CachePath::Warm => "warm",
            CachePath::Resumed => "resumed",
        }
    }

    /// Parses a wire label.
    pub fn parse(label: &str) -> Option<CachePath> {
        Some(match label {
            "cold" => CachePath::Cold,
            "compiled" => CachePath::Compiled,
            "warm" => CachePath::Warm,
            "resumed" => CachePath::Resumed,
            _ => return None,
        })
    }
}

/// The result payload of a finished job, as carried by [`Event::Result`].
///
/// `mean_power_w_bits` carries the estimate's exact IEEE-754 bits so clients
/// can assert bit-for-bit equality against a serial run; `mean_power_w` is
/// the same value as a human-readable decimal (Rust's shortest round-trip
/// form, so parsing it back also recovers the exact value).
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job this result belongs to.
    pub job_id: u64,
    /// Estimator name.
    pub estimator: String,
    /// Estimated average power in watts.
    pub mean_power_w: f64,
    /// Relative CI half-width at termination, if monitored.
    pub relative_half_width: Option<f64>,
    /// Number of power samples behind the estimate.
    pub sample_size: u64,
    /// Selected independence interval in cycles.
    pub independence_interval: Option<u64>,
    /// Zero-delay cycles in the estimate's accounting (includes cycles
    /// inherited through a warm checkpoint or resume).
    pub zero_delay_cycles: u64,
    /// Measured (event-driven) cycles in the estimate's accounting.
    pub measured_cycles: u64,
    /// Cycles this server actually simulated for the job — the accounting
    /// total minus whatever a cache hit or resume skipped. `executed_cycles
    /// < zero_delay_cycles + measured_cycles` is the observable proof that a
    /// cache hit skipped work.
    pub executed_cycles: u64,
    /// Wall-clock seconds from acceptance to completion on the server.
    pub wall_seconds: f64,
    /// Which cache tier seeded the job.
    pub cache: CachePath,
}

/// A server → client event line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A running job advanced by one slice.
    Progress {
        /// The job that advanced.
        job_id: u64,
        /// The session phase, as reported by the estimator.
        phase: String,
        /// Total simulated cycles so far (including inherited accounting).
        cycles_done: u64,
        /// Samples collected so far.
        samples: u64,
        /// Relative CI half-width at the last criterion evaluation.
        rhw: Option<f64>,
    },
    /// A job finished successfully.
    Result(JobResult),
    /// A job failed or was cancelled.
    Failed {
        /// The job that failed.
        job_id: u64,
        /// What happened.
        message: String,
    },
}

impl Event {
    /// Serialises to the wire form.
    pub fn to_json(&self) -> Json {
        match self {
            Event::Progress {
                job_id,
                phase,
                cycles_done,
                samples,
                rhw,
            } => Json::obj(vec![
                ("type", Json::str("progress")),
                ("job_id", Json::u64(*job_id)),
                ("phase", Json::str(phase.clone())),
                ("cycles_done", Json::u64(*cycles_done)),
                ("samples", Json::u64(*samples)),
                ("rhw", rhw.map_or(Json::Null, Json::f64)),
            ]),
            Event::Result(r) => Json::obj(vec![
                ("type", Json::str("result")),
                ("job_id", Json::u64(r.job_id)),
                ("estimator", Json::str(r.estimator.clone())),
                ("mean_power_w", Json::f64(r.mean_power_w)),
                ("mean_power_w_bits", Json::u64(r.mean_power_w.to_bits())),
                (
                    "relative_half_width",
                    r.relative_half_width.map_or(Json::Null, Json::f64),
                ),
                ("sample_size", Json::u64(r.sample_size)),
                (
                    "independence_interval",
                    r.independence_interval.map_or(Json::Null, Json::u64),
                ),
                ("zero_delay_cycles", Json::u64(r.zero_delay_cycles)),
                ("measured_cycles", Json::u64(r.measured_cycles)),
                ("executed_cycles", Json::u64(r.executed_cycles)),
                ("wall_seconds", Json::f64(r.wall_seconds)),
                ("cache", Json::str(r.cache.label())),
            ]),
            Event::Failed { job_id, message } => Json::obj(vec![
                ("type", Json::str("failed")),
                ("job_id", Json::u64(*job_id)),
                ("message", Json::str(message.clone())),
            ]),
        }
    }

    /// Parses a server line as an event. Returns `Ok(None)` when the line is
    /// a response (any non-event `type`), so clients can route lines.
    ///
    /// # Errors
    ///
    /// Returns a message when the line *is* an event but malformed.
    pub fn from_json(value: &Json) -> Result<Option<Event>, String> {
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or("server line has no `type`")?;
        let job_id = || {
            value
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{kind}` event has no `job_id`"))
        };
        match kind {
            "progress" => Ok(Some(Event::Progress {
                job_id: job_id()?,
                phase: value
                    .get("phase")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                cycles_done: value.get("cycles_done").and_then(Json::as_u64).unwrap_or(0),
                samples: value.get("samples").and_then(Json::as_u64).unwrap_or(0),
                rhw: value.get("rhw").and_then(Json::as_f64),
            })),
            "result" => {
                // The bits field is authoritative for the mean; the decimal
                // is advisory/human-facing.
                let bits = value
                    .get("mean_power_w_bits")
                    .and_then(Json::as_u64)
                    .ok_or("`result` event has no `mean_power_w_bits`")?;
                Ok(Some(Event::Result(JobResult {
                    job_id: job_id()?,
                    estimator: value
                        .get("estimator")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    mean_power_w: f64::from_bits(bits),
                    relative_half_width: value.get("relative_half_width").and_then(Json::as_f64),
                    sample_size: value.get("sample_size").and_then(Json::as_u64).unwrap_or(0),
                    independence_interval: value
                        .get("independence_interval")
                        .and_then(Json::as_u64),
                    zero_delay_cycles: value
                        .get("zero_delay_cycles")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    measured_cycles: value
                        .get("measured_cycles")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    executed_cycles: value
                        .get("executed_cycles")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    wall_seconds: value
                        .get("wall_seconds")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    cache: value
                        .get("cache")
                        .and_then(Json::as_str)
                        .and_then(CachePath::parse)
                        .ok_or("`result` event has no valid `cache`")?,
                })))
            }
            "failed" => Ok(Some(Event::Failed {
                job_id: job_id()?,
                message: value
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown failure")
                    .to_string(),
            })),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Submit {
                job: JobSpec::named("s27").with_seed(5),
            },
            Request::Status { job_id: 3 },
            Request::Cancel { job_id: 4 },
            Request::Checkpoint {
                job_id: 5,
                stop: true,
            },
            Request::Resume {
                path: "/tmp/x.ckpt.json".to_string(),
            },
            Request::Stats,
            Request::Metrics,
            Request::Trace { job_id: 6 },
            Request::Ping,
            Request::Shutdown {
                drain_seconds: None,
            },
            Request::Shutdown {
                drain_seconds: Some(1.5),
            },
        ];
        for request in requests {
            let line = request.to_json().to_line();
            let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, request, "{line}");
        }
    }

    #[test]
    fn bad_requests_are_rejected() {
        for bad in [
            r#"{}"#,
            r#"{"type":"warp"}"#,
            r#"{"type":"status"}"#,
            r#"{"type":"submit"}"#,
            r#"{"type":"resume"}"#,
            r#"{"type":"trace"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn events_round_trip_with_exact_mean_bits() {
        let result = Event::Result(JobResult {
            job_id: 9,
            estimator: "DIPE (runs-test interval)".to_string(),
            mean_power_w: 1.0 / 3.0 * 1e-3,
            relative_half_width: Some(0.043),
            sample_size: 512,
            independence_interval: Some(8),
            zero_delay_cycles: 5000,
            measured_cycles: 512,
            executed_cycles: 3000,
            wall_seconds: 0.25,
            cache: CachePath::Warm,
        });
        let line = result.to_json().to_line();
        let back = Event::from_json(&Json::parse(&line).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(back, result);
        if let (Event::Result(a), Event::Result(b)) = (&result, &back) {
            assert_eq!(a.mean_power_w.to_bits(), b.mean_power_w.to_bits());
        }

        let progress = Event::Progress {
            job_id: 1,
            phase: "Sampling".to_string(),
            cycles_done: 100,
            samples: 3,
            rhw: None,
        };
        let back = Event::from_json(&Json::parse(&progress.to_json().to_line()).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(back, progress);
    }

    #[test]
    fn responses_are_not_events() {
        for response in [r#"{"type":"accepted","job_id":1}"#, r#"{"type":"pong"}"#] {
            let v = Json::parse(response).unwrap();
            assert_eq!(Event::from_json(&v).unwrap(), None);
        }
    }

    #[test]
    fn cache_labels_round_trip() {
        for path in [
            CachePath::Cold,
            CachePath::Compiled,
            CachePath::Warm,
            CachePath::Resumed,
        ] {
            assert_eq!(CachePath::parse(path.label()), Some(path));
        }
        assert_eq!(CachePath::parse("lukewarm"), None);
    }

    #[test]
    fn capped_lines_span_reads_and_stop_past_the_cap() {
        // A 3-byte read buffer splits every line across several fills.
        let mut reader = std::io::BufReader::with_capacity(3, &b"abcd\nefghi\nxy"[..]);
        let mut line = Vec::new();
        let mut read = |line: &mut Vec<u8>| read_line_capped(&mut reader, line, 4).unwrap();
        assert_eq!(read(&mut line), LineEnd::Newline);
        assert_eq!(line, b"abcd\n", "a line of exactly the cap fits");
        line.clear();
        assert_eq!(read(&mut line), LineEnd::TooLong);
        assert!(line.len() <= 4, "never buffers past the cap");
        let mut reader = std::io::BufReader::with_capacity(3, &b"xy"[..]);
        line.clear();
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 4).unwrap(),
            LineEnd::Eof
        );
        assert_eq!(line, b"xy", "a torn last line is kept");
    }
}
