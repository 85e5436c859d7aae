//! CLI contract tests for the `repro` binary: flag-parse errors exit 2
//! and name the valid flags, and `--json` + `--metrics` compose in one
//! invocation, producing all three artifacts.

use dt_simengine::TempDir;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tempdir(tag: &str) -> TempDir {
    TempDir::new(&format!("dt-repro-cli-{tag}")).unwrap()
}

#[test]
fn unknown_flag_exits_2_and_lists_the_valid_flags() {
    let out = repro().args(["zoo", "--metrix", "x.prom"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--metrix'"), "stderr: {stderr}");
    for flag in ["--trace", "--json", "--metrics"] {
        assert!(stderr.contains(flag), "stderr must list {flag}: {stderr}");
    }
}

#[test]
fn missing_flag_value_exits_2_and_lists_the_valid_flags() {
    let out = repro().args(["zoo", "--metrics"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--metrics requires an output path"), "stderr: {stderr}");
    assert!(stderr.contains("--json"), "stderr must list the valid flags: {stderr}");
}

#[test]
fn unknown_experiment_still_exits_2() {
    let out = repro().args(["zo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'zo'"));
}

#[test]
fn json_and_metrics_compose_in_one_run() {
    let dir = tempdir("compose");
    let json = dir.join("tables.json");
    let prom = dir.join("metrics.prom");
    let out = repro()
        .args(["zoo", "--json"])
        .arg(&json)
        .arg("--metrics")
        .arg(&prom)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Metrics summary"), "stdout: {stdout}");
    assert!(stdout.contains("zoo regenerated"), "stdout: {stdout}");

    // The Prometheus dump covers the runtime / pipeline / preprocess
    // families and is non-empty, line-oriented text.
    let text = std::fs::read_to_string(&prom).unwrap();
    for family in [
        "# TYPE dt_runtime_iter_time_seconds summary",
        "# TYPE dt_pipeline_stage_compute_seconds summary",
        "# TYPE dt_preprocess_fetch_seconds summary",
        "dt_runtime_iterations_total",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }

    // The metrics archive sits next to the dump and parses as JSON.
    let archive = std::fs::read_to_string(dir.join("metrics.prom.json")).unwrap();
    let doc = dt_simengine::Json::parse(&archive).expect("metrics archive is valid JSON");
    assert!(doc.get("metrics").and_then(|m| m.as_array()).is_some_and(|m| !m.is_empty()));

    // The experiment table archive was written too.
    let tables = std::fs::read_to_string(&json).unwrap();
    let tables = dt_simengine::Json::parse(&tables).expect("tables archive is valid JSON");
    assert!(tables.as_array().is_some_and(|t| t.len() == 1));
}
