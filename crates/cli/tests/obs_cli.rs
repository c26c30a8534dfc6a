//! End-to-end acceptance tests for the observability flags: command
//! output must be byte-identical with and without `--metrics-out`, and
//! the emitted metrics document must contain nonzero span timings for
//! the simulate, analyze, and report stages.

use std::path::Path;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hpcpower")
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn hpcpower");
    assert!(
        out.status.success(),
        "hpcpower {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn lookup<'a>(value: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    value.as_object().and_then(|o| serde_json::find(o, key))
}

fn span_total_ns(metrics: &serde_json::Value, name: &str) -> u64 {
    let spans = lookup(metrics, "spans").expect("metrics document has a spans section");
    let span = lookup(spans, name).unwrap_or_else(|| panic!("span {name} present in metrics"));
    lookup(span, "total_ns")
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("span {name} has a numeric total_ns"))
}

fn simulate(dir: &Path, out_name: &str, extra: &[&str]) -> Vec<u8> {
    let out_dir = dir.join(out_name);
    let mut args = vec![
        "simulate", "--system", "emmy", "--seed", "3", "--nodes", "24", "--days", "2", "--users",
        "10", "--quiet", "--out",
    ];
    let out_str = out_dir.to_str().unwrap().to_string();
    args.push(&out_str);
    args.extend_from_slice(extra);
    run(&args);
    std::fs::read(out_dir.join("dataset.json")).expect("dataset written")
}

#[test]
fn metrics_out_leaves_dataset_bytes_identical_and_records_simulate_span() {
    let dir = tempdir("obs-cli-simulate");
    let plain = simulate(&dir, "plain", &[]);
    let metrics_path = dir.join("metrics.json");
    let metrics_str = metrics_path.to_str().unwrap().to_string();
    let instrumented = simulate(&dir, "instrumented", &["--metrics-out", &metrics_str]);
    assert_eq!(
        plain, instrumented,
        "--metrics-out must not change the dataset bytes"
    );

    let doc = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let metrics: serde_json::Value = serde_json::parse(&doc).expect("metrics JSON parses");
    assert!(span_total_ns(&metrics, "simulate") > 0);
    let counters = lookup(&metrics, "counters").expect("counters section");
    let jobs_placed = lookup(counters, "sim.jobs.placed")
        .and_then(|v| v.as_u64())
        .expect("sim.jobs.placed counter");
    assert!(jobs_placed > 0);
}

#[test]
fn metrics_out_leaves_analyze_stdout_identical_and_records_stage_spans() {
    let dir = tempdir("obs-cli-analyze");
    simulate(&dir, "trace", &[]);
    let data = dir.join("trace").join("dataset.json");
    let data_str = data.to_str().unwrap().to_string();

    let plain = run(&["analyze", "--data", &data_str, "--splits", "2"]);
    let metrics_path = dir.join("metrics.json");
    let metrics_str = metrics_path.to_str().unwrap().to_string();
    let instrumented = run(&[
        "analyze",
        "--data",
        &data_str,
        "--splits",
        "2",
        "--metrics-out",
        &metrics_str,
    ]);
    assert_eq!(
        plain.stdout, instrumented.stdout,
        "--metrics-out must not change the report bytes"
    );

    let doc = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let metrics: serde_json::Value = serde_json::parse(&doc).expect("metrics JSON parses");
    // The acceptance contract: nonzero span timings for at least the
    // simulate (covered above), analyze, and report stages.
    assert!(span_total_ns(&metrics, "analyze") > 0);
    assert!(span_total_ns(&metrics, "report.render") > 0);
    assert!(span_total_ns(&metrics, "report.section.prediction") > 0);
}

#[test]
fn log_format_prints_summary_to_stderr_and_quiet_suppresses_it() {
    let dir = tempdir("obs-cli-logfmt");
    simulate(&dir, "trace", &[]);
    let data = dir.join("trace").join("dataset.json");
    let data_str = data.to_str().unwrap().to_string();

    let noisy = run(&[
        "analyze",
        "--data",
        &data_str,
        "--splits",
        "2",
        "--log-format",
        "text",
    ]);
    let stderr = String::from_utf8_lossy(&noisy.stderr);
    assert!(
        stderr.contains("analyze"),
        "text summary names the command span"
    );
    assert!(stderr.contains("counters:"), "text summary lists counters");

    let json_fmt = run(&[
        "analyze",
        "--data",
        &data_str,
        "--splits",
        "2",
        "--log-format",
        "json",
    ]);
    let first = String::from_utf8_lossy(&json_fmt.stderr);
    let line = first.lines().next().expect("jsonl output");
    let v: serde_json::Value = serde_json::parse(line).expect("stderr line is JSON");
    assert!(v.as_object().is_some());

    let quiet = run(&[
        "analyze",
        "--data",
        &data_str,
        "--splits",
        "2",
        "--log-format",
        "text",
        "--quiet",
    ]);
    assert!(
        quiet.stderr.is_empty(),
        "--quiet must suppress the telemetry summary"
    );
    assert_eq!(noisy.stdout, quiet.stdout, "--quiet must not touch stdout");
}

#[test]
fn trace_out_leaves_dataset_bytes_identical_and_writes_a_valid_chrome_trace() {
    let dir = tempdir("obs-cli-trace");
    let plain = simulate(&dir, "plain", &[]);
    let trace_path = dir.join("trace.json");
    let trace_str = trace_path.to_str().unwrap().to_string();
    let traced = simulate(&dir, "traced", &["--trace-out", &trace_str]);
    assert_eq!(
        plain, traced,
        "--trace-out must not change the dataset bytes"
    );

    let doc = std::fs::read_to_string(&trace_path).expect("trace file written");
    let trace: serde_json::Value = serde_json::parse(&doc).expect("chrome trace parses as JSON");
    let events = lookup(&trace, "traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain span events");

    // Balanced, properly nested B/E per tid — what the trace viewer
    // requires — and the simulate span must be among them.
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut saw_simulate = false;
    for ev in events {
        let name = lookup(ev, "name")
            .and_then(|v| v.as_str())
            .expect("event name");
        let ph = lookup(ev, "ph")
            .and_then(|v| v.as_str())
            .expect("event phase");
        let tid = lookup(ev, "tid")
            .and_then(|v| v.as_u64())
            .expect("event tid");
        saw_simulate |= name == "simulate";
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack
                    .pop()
                    .unwrap_or_else(|| panic!("unbalanced E {name:?}"));
                assert_eq!(open, name, "E must close the innermost B on tid {tid}");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(
        stacks.values().all(Vec::is_empty),
        "all spans must be closed"
    );
    assert!(saw_simulate, "simulate span must appear in the trace");
}

#[test]
fn metrics_format_prom_writes_a_lint_clean_exposition() {
    let dir = tempdir("obs-cli-prom");
    let metrics_path = dir.join("metrics.prom");
    let metrics_str = metrics_path.to_str().unwrap().to_string();
    simulate(
        &dir,
        "trace",
        &["--metrics-out", &metrics_str, "--metrics-format", "prom"],
    );
    let text = std::fs::read_to_string(&metrics_path).expect("prom file written");
    hpcpower_obs::export::lint_prometheus(&text)
        .unwrap_or_else(|e| panic!("exposition failed linting: {e}\n---\n{text}"));
    assert!(text.contains("# TYPE sim_jobs_placed_total counter"));
    assert!(text.contains("# TYPE simulate_cmd_seconds summary"));
}

#[test]
fn bench_diff_gates_on_synthetic_regression() {
    let dir = tempdir("obs-cli-benchdiff");
    let hist = dir.join("bench.json");
    // Baseline 10s -> latest 13s parallel wall: a 30% regression.
    std::fs::write(
        &hist,
        r#"{"runs":[
  {"git_sha":"aaaaaaa","date":"2026-08-01",
   "serial":{"wall_s":20.0},"parallel":{"wall_s":10.0},"speedup":2.0},
  {"git_sha":"bbbbbbb","date":"2026-08-02",
   "serial":{"wall_s":20.5},"parallel":{"wall_s":13.0},"speedup":1.58}
]}"#,
    )
    .expect("write history");
    let hist_str = hist.to_str().unwrap().to_string();

    // Informational diff: exits 0 even though the trajectory regressed.
    let plain = run(&["bench", "diff", "--bench", &hist_str]);
    let stdout = String::from_utf8_lossy(&plain.stdout);
    assert!(
        stdout.contains("parallel.wall_s"),
        "table lists the gate metric"
    );
    assert!(stdout.contains("+30.0%"), "delta is computed: {stdout}");

    // Gated at 20%: the 30% regression must exit non-zero (code 3).
    let gated = Command::new(bin())
        .args([
            "bench",
            "diff",
            "--bench",
            &hist_str,
            "--fail-on-regress",
            "20",
        ])
        .output()
        .expect("spawn hpcpower");
    assert_eq!(
        gated.status.code(),
        Some(3),
        "regression past the threshold must exit 3:\n{}",
        String::from_utf8_lossy(&gated.stderr)
    );
    assert!(
        String::from_utf8_lossy(&gated.stderr).contains("REGRESSION"),
        "failure names the regression"
    );

    // Gated at 50%: within budget, exits 0.
    run(&[
        "bench",
        "diff",
        "--bench",
        &hist_str,
        "--fail-on-regress",
        "50",
    ]);

    // And the repository's own committed history must pass the gate the
    // way tier1.sh runs it.
    let repo_hist = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    if repo_hist.exists() {
        run(&["bench", "diff", "--bench", repo_hist.to_str().unwrap()]);
    }
}

/// A per-test scratch directory under the target tmpdir.
#[test]
fn bench_diff_gates_per_stage_timings() {
    let dir = tempdir("obs-cli-benchdiff-stages");
    let hist = dir.join("bench.json");
    // Wall time is flat but the simulate kernel regressed 50% — the
    // per-stage gate must catch what the end-to-end number hides.
    std::fs::write(
        &hist,
        r#"{"runs":[
  {"git_sha":"aaaaaaa","date":"2026-08-01","cores_available":4,
   "serial":{"wall_s":10.0,"stages":{"simulate_s":4.0,"analyze_s":3.0}},
   "parallel":{"wall_s":5.0,"stages":{"simulate_s":2.0,"analyze_s":1.5}}},
  {"git_sha":"bbbbbbb","date":"2026-08-02","cores_available":4,
   "serial":{"wall_s":10.1,"stages":{"simulate_s":6.0,"analyze_s":1.0}},
   "parallel":{"wall_s":5.05,"stages":{"simulate_s":3.0,"analyze_s":0.5}}}
]}"#,
    )
    .expect("write history");
    let hist_str = hist.to_str().unwrap().to_string();

    let gated = Command::new(bin())
        .args([
            "bench",
            "diff",
            "--bench",
            &hist_str,
            "--fail-on-regress",
            "20",
        ])
        .output()
        .expect("spawn hpcpower");
    assert_eq!(
        gated.status.code(),
        Some(3),
        "stage regression with flat wall_s must exit 3:\n{}{}",
        String::from_utf8_lossy(&gated.stdout),
        String::from_utf8_lossy(&gated.stderr)
    );
    let stderr = String::from_utf8_lossy(&gated.stderr);
    assert!(
        stderr.contains("simulate_s"),
        "failure names the regressed stage: {stderr}"
    );
    assert!(
        !stderr.contains("analyze_s"),
        "improved stage is not flagged: {stderr}"
    );
}

#[test]
fn bench_diff_skips_gate_across_core_count_change() {
    let dir = tempdir("obs-cli-benchdiff-cores");
    let hist = dir.join("bench.json");
    // Latest run came from a smaller host: timings regressed on paper
    // but the gate must refuse to compare across a hardware change.
    std::fs::write(
        &hist,
        r#"{"runs":[
  {"git_sha":"aaaaaaa","date":"2026-08-01","cores_available":16,
   "serial":{"wall_s":10.0,"stages":{"simulate_s":4.0,"analyze_s":3.0}},
   "parallel":{"wall_s":2.0,"stages":{"simulate_s":0.8,"analyze_s":0.6}}},
  {"git_sha":"bbbbbbb","date":"2026-08-02","cores_available":1,
   "serial":{"wall_s":10.1,"stages":{"simulate_s":4.1,"analyze_s":3.0}},
   "parallel":{"wall_s":9.9,"stages":{"simulate_s":4.0,"analyze_s":2.9}}}
]}"#,
    )
    .expect("write history");
    let hist_str = hist.to_str().unwrap().to_string();

    let out = run(&[
        "bench",
        "diff",
        "--bench",
        &hist_str,
        "--fail-on-regress",
        "10",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("cores_available changed"),
        "diff explains why the gate was skipped: {stdout}"
    );
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcpower-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
