//! End-to-end acceptance tests for the robustness flags: `simulate
//! --faults`, `ingest --strict|--lenient --error-budget --repair-policy`,
//! `analyze --repair-policy`, and the `--stage-timeout` watchdog,
//! including the non-zero exit with a quarantine summary when the error
//! budget is exceeded.

use std::path::Path;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hpcpower")
}

fn run_raw(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn hpcpower")
}

fn run(args: &[&str]) -> Output {
    let out = run_raw(args);
    assert!(
        out.status.success(),
        "hpcpower {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcpower-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes a dirty trace with `simulate --faults` and returns its dir.
/// Telemetry rides along so the fault counters are checked too.
fn simulate_faulted(dir: &Path, rate: &str) -> std::path::PathBuf {
    let out_dir = dir.join(format!("trace-{rate}"));
    let out_str = out_dir.to_str().unwrap().to_string();
    let metrics = dir.join(format!("sim-metrics-{rate}.json"));
    let metrics_str = metrics.to_str().unwrap().to_string();
    let out = run(&[
        "simulate", "--system", "emmy", "--seed", "9", "--nodes", "16", "--days", "3",
        "--users", "8", "--quiet", "--faults", rate, "--out", &out_str,
        "--metrics-out", &metrics_str,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("faults injected:"),
        "simulate --faults must print a fault summary, got:\n{stdout}"
    );
    let doc = std::fs::read_to_string(&metrics).expect("metrics written");
    let parsed: serde_json::Value = serde_json::parse(&doc).expect("metrics JSON parses");
    let injected = parsed
        .as_object()
        .and_then(|o| serde_json::find(o, "counters"))
        .and_then(|v| v.as_object())
        .and_then(|c| serde_json::find(c, "faults.injected"))
        .and_then(|v| v.as_u64())
        .expect("faults.injected counter");
    assert!(injected > 0, "fault counter must record the injections");
    out_dir
}

#[test]
fn simulate_faults_then_analyze_repair_policy_round_trips() {
    let dir = tempdir("robust-roundtrip");
    let trace = simulate_faulted(&dir, "0.05");
    let data = trace.join("dataset.json");
    let data_str = data.to_str().unwrap().to_string();

    // Without repair the dirty dataset is rejected (exit 2)...
    let refused = run_raw(&["analyze", "--data", &data_str, "--splits", "2"]);
    assert_eq!(refused.status.code(), Some(2), "dirty dataset must be refused");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("violation"),
        "refusal must cite the violations"
    );

    // ...with --repair-policy it analyzes and reports data quality.
    let out = run(&[
        "analyze", "--data", &data_str, "--splits", "2", "--repair-policy", "hold-last",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## Data quality"), "missing quality section");
    assert!(stdout.contains("repair policy       : hold-last"));
    assert!(stdout.contains("## Fig. 1/2"), "analysis must still run");

    // The JSON report carries the same section.
    let json_out = run(&[
        "analyze", "--data", &data_str, "--splits", "2", "--repair-policy", "drop-job",
        "--json",
    ]);
    let text = String::from_utf8_lossy(&json_out.stdout).to_string();
    let doc: serde_json::Value = serde_json::parse(&text).expect("report JSON parses");
    let quality = doc
        .as_object()
        .and_then(|o| serde_json::find(o, "data_quality"))
        .expect("data_quality key present");
    assert!(
        quality.as_object().is_some(),
        "data_quality must be an object for a repaired dataset"
    );
}

#[test]
fn clean_report_bytes_are_unchanged_by_the_fault_machinery() {
    let dir = tempdir("robust-clean");
    let out_dir = dir.join("clean");
    let out_str = out_dir.to_str().unwrap().to_string();
    run(&[
        "simulate", "--system", "emmy", "--seed", "9", "--nodes", "16", "--days", "3",
        "--users", "8", "--quiet", "--out", &out_str,
    ]);
    let data = out_dir.join("dataset.json");
    let data_str = data.to_str().unwrap().to_string();
    let plain = run(&["analyze", "--data", &data_str, "--splits", "2"]);
    // A clean dataset repaired under any policy is untouched, so the
    // report differs only by the (explicitly requested) quality section.
    let repaired = run(&[
        "analyze", "--data", &data_str, "--splits", "2", "--repair-policy", "linear",
    ]);
    let plain_text = String::from_utf8_lossy(&plain.stdout).to_string();
    let repaired_text = String::from_utf8_lossy(&repaired.stdout).to_string();
    assert_ne!(plain_text, repaired_text, "quality section expected");
    let stripped: String = repaired_text
        .lines()
        .filter(|l| !l.starts_with("## Data quality") && !l.starts_with("  repair policy")
            && !l.starts_with("  jobs      ") && !l.starts_with("  quarantined rows")
            && !l.starts_with("  accounting fixes") && !l.starts_with("  system series")
            && !l.starts_with("  series coverage") && !l.starts_with("  instrumented series")
            && !l.starts_with("  validation "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(plain_text, stripped, "analysis sections must be byte-identical");
}

#[test]
fn ingest_repairs_faulted_csvs_and_exceeded_budget_exits_nonzero() {
    let dir = tempdir("robust-ingest");
    let trace = simulate_faulted(&dir, "0.10");
    let jobs = trace.join("jobs.csv");
    let system = trace.join("system.csv");
    let jobs_str = jobs.to_str().unwrap().to_string();
    let system_str = system.to_str().unwrap().to_string();
    let out_dir = dir.join("repaired");
    let out_str = out_dir.to_str().unwrap().to_string();

    let metrics_path = dir.join("metrics.json");
    let metrics_str = metrics_path.to_str().unwrap().to_string();
    let out = run(&[
        "ingest", "--jobs", &jobs_str, "--system", &system_str, "--nodes", "16",
        "--lenient", "--repair-policy", "linear", "--out", &out_str,
        "--metrics-out", &metrics_str,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## Data quality"), "quality report expected:\n{stdout}");
    assert!(stdout.contains("0 after"), "repair must clear all violations");

    // The repair layer reports its work through the obs counters.
    let doc = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let metrics: serde_json::Value = serde_json::parse(&doc).expect("metrics JSON parses");
    let counters = metrics
        .as_object()
        .and_then(|o| serde_json::find(o, "counters"))
        .and_then(|v| v.as_object())
        .expect("counters section");
    let counter = |name: &str| {
        serde_json::find(counters, name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(counter("repair.rows_repaired") > 0, "repair work expected");

    // The repaired dataset is analyzable without any repair flag.
    let data = out_dir.join("dataset.json");
    let data_str = data.to_str().unwrap().to_string();
    run(&["analyze", "--data", &data_str, "--splits", "2"]);
    assert!(out_dir.join("quality.json").exists(), "quality.json written");

    // Corrupt the CSV beyond a tiny budget: lenient mode must exit
    // non-zero and summarize the quarantine.
    let mut corrupted = std::fs::read_to_string(&jobs).expect("read jobs.csv");
    corrupted.push_str("garbage\nmore,garbage\nstill garbage\n");
    let bad = dir.join("bad-jobs.csv");
    std::fs::write(&bad, corrupted).expect("write corrupted csv");
    let bad_str = bad.to_str().unwrap().to_string();
    let refused = run_raw(&[
        "ingest", "--jobs", &bad_str, "--nodes", "16", "--lenient", "--error-budget", "2",
    ]);
    assert_eq!(refused.status.code(), Some(2), "budget overrun must exit non-zero");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("error budget exceeded") && stderr.contains("3 rows quarantined"),
        "quarantine summary expected on stderr:\n{stderr}"
    );

    // Strict mode fails fast on the first bad row, with its line number.
    let strict = run_raw(&["ingest", "--jobs", &bad_str, "--nodes", "16", "--strict"]);
    assert_eq!(strict.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&strict.stderr).contains("parse error at line"),
        "strict failure must carry the line number"
    );
}

/// A stalled checkpointed run trips the watchdog with the resumable
/// exit 6 and publishes nothing. The stall (30 s) outlasts the timeout
/// (1 s) by far, so the watchdog always fires first.
#[test]
fn stalled_checkpointed_simulate_exits_6_and_publishes_nothing() {
    let dir = tempdir("robust-stall");
    let ckpt = dir.join("ckpt");
    let out_dir = dir.join("out");
    let out = run_raw(&[
        "simulate", "--system", "emmy", "--seed", "7", "--nodes", "24", "--days", "2",
        "--users", "16", "--quiet", "--checkpoint-dir", ckpt.to_str().unwrap(),
        "--chunk-jobs", "8", "--chaos-stall-at-chunk", "1", "--chaos-stall-ms", "30000",
        "--stage-timeout", "1", "--out", out_dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "stall must exit 6: {stderr}");
    assert!(stderr.contains("--resume"), "the exit must point at --resume: {stderr}");
    assert!(
        !out_dir.join("dataset.json").exists(),
        "a stalled run must not publish dataset.json"
    );
    std::fs::remove_dir_all(&dir).ok();
}
