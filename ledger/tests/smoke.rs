//! Smoke test: a tiny configuration of every workload, untraced and
//! traced, must pass its oracle and print every metric `BENCHMARK.json`
//! names, with the unit it names.

use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

/// The string value of `"key": "..."` in `line`.
fn field(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Run one tiny workload; return its result line.
fn run(workload: &str, trace: bool) -> String {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_wh-ledger"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&work);
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true,"),
        "oracle failed: {line}"
    );
    assert!(line.contains("\"failed\": 0,"), "operations failed: {line}");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
        let rest = &line[at..];
        let entry = &rest[..rest.find('}').expect("metric object closes")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} has the wrong unit: {entry}"
        );
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        metrics.len(),
        "{workload}: metrics beyond {section}: {line}"
    );
}

/// One test, so the workloads run one after another rather than
/// oversubscribing the cores.
#[test]
fn every_workload_passes_and_reports_every_metric() {
    for workload in ["warehouse-day", "point-churn", "durable-spill"] {
        check(workload, false);
        check(workload, true);
    }
}
