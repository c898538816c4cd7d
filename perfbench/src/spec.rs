//! The benchmark's registry of workloads and metrics: the committed
//! `BENCHMARK.json` at the repository root, compiled into the binary.
//!
//! The file keeps one workload or metric per line, which is all the parsing
//! below relies on. The layer-to-end-to-end predictions live beside it in
//! `perfbench/layer_map.json`; the benchmark's tests check that every layer
//! metric has one.

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The string value of `"key": "..."` on `line`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(&format!("\"{key}\": \""))
        .nth(1)?
        .split('"')
        .next()
}

/// `(name, unit)` of every entry of `section` (`workloads`, `end_to_end`
/// or `per_layer`), in file order; workloads have an empty unit.
pub fn entries(section: &str) -> Vec<(&'static str, &'static str)> {
    let opening = format!("\"{section}\": [");
    BENCHMARK_JSON
        .lines()
        .skip_while(|line| !line.contains(&opening))
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with(']'))
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit").unwrap_or(""))))
        .collect()
}

/// Seconds one run measures by default (`run_seconds`).
pub fn run_seconds() -> f64 {
    BENCHMARK_JSON
        .split("\"run_seconds\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("BENCHMARK.json has a run_seconds")
}

pub fn is_workload(name: &str) -> bool {
    entries("workloads").iter().any(|&(w, _)| w == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_parses() {
        assert_eq!(entries("workloads").len(), 4);
        assert!(is_workload("serve_mix") && !is_workload("nope"));
        assert!(entries("end_to_end").contains(&("setup_s", "s")));
        assert!(entries("per_layer").contains(&("dipe.samples", "count")));
        assert!(run_seconds() >= 1.0);
    }
}
