//! Runs every workload at its smoke size, untraced and traced, and checks
//! the result line: correct, and every metric `BENCHMARK.json` registers
//! present with its unit. Also checks that `layer_map.json` gives every
//! layer metric a prediction naming known metrics and workloads.

use std::process::Command;

const WORKLOADS: &[&str] = &[
    "table1_scalar",
    "breakdown_shards2",
    "serve_mix",
    "megagate_blif",
];

fn perfbench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench");
    assert!(
        output.status.success(),
        "perfbench {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const LAYER_MAP_JSON: &str = include_str!("../layer_map.json");

/// The string values of `"key": "..."` on each line of `text` that has one.
fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.lines()
        .filter_map(|line| line.split(&needle).nth(1)?.split('"').next())
        .collect()
}

/// `(name, unit)` of every entry of `section` in `BENCHMARK.json`.
fn registered(section: &str) -> Vec<(&'static str, &'static str)> {
    let body = BENCHMARK_JSON
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("section present");
    values(body, "name")
        .into_iter()
        .zip(values(body, "unit"))
        .collect()
}

fn smoke(workload: &str, trace: &str) {
    let scratch = format!("{}/scratch", env!("CARGO_TARGET_TMPDIR"));
    let stdout = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        trace,
        "--smoke",
        "--scratch",
        &scratch,
    ]);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("{\"provenance\":"), "{}", lines[0]);
    for key in [
        "host_cpus",
        "cpu_model",
        "l2_cache",
        "l3_cache",
        "rustc",
        "revision",
        "seed",
    ] {
        assert!(lines[0].contains(&format!("\"{key}\":")), "{key} missing");
    }
    if trace == "0" {
        let host = lines[lines.len() - 2];
        assert!(
            host.starts_with("{\"host\": {\"reference_kernel_s\": "),
            "{host}"
        );
    }
    let result = lines.last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload} trace {trace}: {result}"
    );
    assert!(result.contains("\"failed\": 0,"), "{result}");
    let section = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let metrics = registered(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&needle)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let rest = &result[at + needle.len()..];
        let value: f64 = rest[..rest.find(',').unwrap()]
            .parse()
            .expect("numeric value");
        assert!(value.is_finite());
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"}}")),
            "{name} lacks unit {unit}"
        );
        if trace == "0" {
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        smoke(workload, "0");
    }
}

#[test]
fn every_workload_reports_every_layer_metric() {
    for workload in WORKLOADS {
        smoke(workload, "1");
    }
}

#[test]
fn every_layer_metric_has_a_prediction() {
    let workloads = BENCHMARK_JSON.split("\"end_to_end\"").next().unwrap();
    assert_eq!(values(workloads, "name"), WORKLOADS);
    let layers: Vec<&str> = registered("per_layer").iter().map(|m| m.0).collect();
    assert_eq!(values(LAYER_MAP_JSON, "name"), layers);
    let end_to_end: Vec<&str> = registered("end_to_end").iter().map(|m| m.0).collect();
    for line in LAYER_MAP_JSON.lines().filter(|l| l.contains("\"moves\"")) {
        let lists = line
            .split('[')
            .skip(1)
            .map(|l| l.split(']').next().unwrap());
        for (k, list) in lists.enumerate() {
            for item in list.split(',').map(|i| i.trim().trim_matches('"')) {
                let (metric, workload) = match (k, item.split_once('@')) {
                    (_, _) if item.is_empty() => continue,
                    (0, Some((metric, workload))) => (metric, workload),
                    (0, None) => (item, ""),
                    _ => ("", item),
                };
                assert!(metric.is_empty() || end_to_end.contains(&metric), "{line}");
                assert!(
                    workload.is_empty() || WORKLOADS.contains(&workload),
                    "{line}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench")
            .status;
        assert!(!status.success(), "{args:?}");
    }
}
