//! End-to-end acceptance tests for the continuous-profiling layer:
//! `--profile-out` must be provably non-invasive (dataset bytes are
//! identical with profiling on and off, at 1 and 4 worker threads),
//! its three export formats must be structurally valid, the `profile
//! report|diff` subcommands must work on the emitted files, and
//! `bench diff` must gate on allocation regressions while degrading
//! gracefully when there is no baseline yet.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hpcpower")
}

fn run_raw(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn hpcpower")
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

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcpower-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `simulate` into `out_name` with the given threads and extra
/// flags, returning the dataset bytes.
fn simulate(dir: &Path, out_name: &str, threads: &str, extra: &[&str]) -> Vec<u8> {
    let out_dir = dir.join(out_name);
    let out_str = out_dir.to_str().unwrap().to_string();
    let mut args = vec![
        "simulate",
        "--system",
        "emmy",
        "--seed",
        "11",
        "--nodes",
        "16",
        "--days",
        "2",
        "--users",
        "8",
        "--threads",
        threads,
        "--quiet",
        "--out",
        &out_str,
    ];
    args.extend_from_slice(extra);
    run(&args);
    std::fs::read(out_dir.join("dataset.json")).expect("dataset written")
}

/// The non-invasiveness contract: profiling (span timeline + the
/// allocation gate, both switched on by `--profile-out`) must not
/// change a single dataset byte, serial or parallel.
#[test]
fn profile_out_leaves_dataset_bytes_identical_at_1_and_4_threads() {
    let dir = tempdir("profile-identity");
    for threads in ["1", "4"] {
        let plain = simulate(&dir, &format!("plain-t{threads}"), threads, &[]);
        let folded = dir.join(format!("profile-t{threads}.folded"));
        let folded_str = folded.to_str().unwrap().to_string();
        let profiled = simulate(
            &dir,
            &format!("profiled-t{threads}"),
            threads,
            &["--profile-out", &folded_str],
        );
        assert_eq!(
            plain, profiled,
            "--profile-out changed dataset bytes at --threads {threads}"
        );
        let text = std::fs::read_to_string(&folded).expect("profile written");
        assert!(!text.trim().is_empty(), "folded profile must not be empty");
        assert!(
            text.lines().any(|l| l.starts_with("simulate")),
            "folded stacks are rooted at the simulate span:\n{text}"
        );
        // Every line is `path self_ns`.
        for line in text.lines() {
            let (_, v) = line.rsplit_once(' ').expect("folded line has a value");
            v.parse::<u64>()
                .unwrap_or_else(|_| panic!("numeric self_ns in {line:?}"));
        }
    }
}

/// Format selection: an explicit `,svg` suffix and extension inference
/// for `.json` both work, and the outputs are structurally valid.
#[test]
fn profile_out_svg_and_speedscope_are_structurally_valid() {
    let dir = tempdir("profile-formats");
    let svg_path = dir.join("flame.out");
    let spec = format!("{},svg", svg_path.display());
    simulate(&dir, "svg-run", "2", &["--profile-out", &spec]);
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(
        svg.starts_with("<svg "),
        "SVG root element first: {}",
        &svg[..40.min(svg.len())]
    );
    assert!(svg.trim_end().ends_with("</svg>"));
    assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());

    let ss_path = dir.join("profile.json");
    let ss_str = ss_path.to_str().unwrap().to_string();
    simulate(&dir, "ss-run", "2", &["--profile-out", &ss_str]);
    let doc = std::fs::read_to_string(&ss_path).expect("speedscope written");
    let v = serde_json::parse(&doc).expect("speedscope JSON parses");
    let top = v.as_object().expect("object root");
    let profiles = serde_json::find(top, "profiles")
        .and_then(|p| p.as_array())
        .expect("profiles array");
    assert_eq!(profiles.len(), 2, "wall-time and allocation profiles");

    // Speedscope carries allocated bytes, so the report shows them.
    let report = run(&["profile", "report", "--profile", &ss_str]);
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(
        stdout.contains(" KiB allocated)"),
        "header totals the bytes: {stdout}"
    );
    assert!(
        stdout.contains("alloc KiB"),
        "report has the bytes column: {stdout}"
    );
    let diff = run(&["profile", "diff", "--a", &ss_str, "--b", &ss_str]);
    let stdout = String::from_utf8_lossy(&diff.stdout);
    assert!(
        stdout.contains("a KiB") && stdout.contains("b KiB"),
        "diff has both bytes columns: {stdout}"
    );
    assert!(!stdout.contains("no allocation data"), "{stdout}");
}

/// `profile report` and `profile diff` read the emitted files and exit
/// 0; the report names the hot span.
#[test]
fn profile_report_and_diff_work_on_emitted_profiles() {
    let dir = tempdir("profile-report");
    let a = dir.join("a.folded");
    let b = dir.join("b.folded");
    let a_str = a.to_str().unwrap().to_string();
    let b_str = b.to_str().unwrap().to_string();
    simulate(&dir, "run-a", "1", &["--profile-out", &a_str]);
    simulate(&dir, "run-b", "2", &["--profile-out", &b_str]);

    let report = run(&["profile", "report", "--profile", &a_str, "--top", "5"]);
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(
        stdout.contains("simulate"),
        "report lists the simulate path: {stdout}"
    );
    assert!(stdout.contains("self ms"), "report has the header row");
    // Folded profiles carry no allocation bytes: the header says so and
    // the table has no column of zeros.
    assert!(
        stdout.contains("no allocation data"),
        "header names the gap: {stdout}"
    );
    assert!(
        !stdout.contains("alloc KiB"),
        "no bytes column for folded input: {stdout}"
    );

    let diff = run(&["profile", "diff", "--a", &a_str, "--b", &b_str]);
    let stdout = String::from_utf8_lossy(&diff.stdout);
    assert!(
        stdout.contains("delta"),
        "diff has the delta column: {stdout}"
    );
    // Nor does the diff of two folded profiles show columns of zeros.
    assert!(
        stdout.contains("no allocation data"),
        "header names the gap: {stdout}"
    );
    assert!(
        !stdout.contains("KiB"),
        "no bytes columns for folded input: {stdout}"
    );
}

/// Usage errors exit 2: a bad format token after the comma, and a
/// missing subcommand.
#[test]
fn profile_usage_errors_exit_2() {
    let bad_fmt = run_raw(&[
        "simulate",
        "--system",
        "emmy",
        "--seed",
        "1",
        "--quiet",
        "--profile-out",
        "/tmp/x.folded,pprof",
    ]);
    assert_eq!(
        bad_fmt.status.code(),
        Some(2),
        "unknown profile format must exit 2"
    );
    assert!(
        String::from_utf8_lossy(&bad_fmt.stderr).contains("pprof"),
        "error names the bad token"
    );

    let no_sub = run_raw(&["profile"]);
    assert_eq!(no_sub.status.code(), Some(2));

    let missing = run_raw(&["profile", "report", "--profile", "/nonexistent/p.folded"]);
    assert_eq!(
        missing.status.code(),
        Some(2),
        "unreadable profile must exit 2"
    );
}

/// No baseline is not a failure: a missing history file, an empty run
/// list, and a single run must all exit 0 with a clear message.
#[test]
fn bench_diff_without_baseline_exits_zero() {
    let dir = tempdir("profile-nobaseline");
    let missing = dir.join("missing.json");
    let missing_str = missing.to_str().unwrap().to_string();
    for (tag, contents) in [
        ("missing", None),
        ("empty", Some(r#"{"runs":[]}"#)),
        (
            "single",
            Some(
                r#"{"runs":[{"git_sha":"aaaaaaa","date":"2026-08-01",
                "serial":{"wall_s":10.0},"parallel":{"wall_s":5.0}}]}"#,
            ),
        ),
    ] {
        let path = if let Some(contents) = contents {
            let p = dir.join(format!("{tag}.json"));
            std::fs::write(&p, contents).expect("write history");
            p.to_str().unwrap().to_string()
        } else {
            missing_str.clone()
        };
        let out = run(&["bench", "diff", "--bench", &path, "--fail-on-regress", "10"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("no baseline yet"),
            "{tag}: message explains there is nothing to diff: {stdout}"
        );
    }
}

/// The memory-aware gate: flat wall time but a 3x simulate-stage
/// allocation regression must fail `--fail-on-regress`, and legacy
/// histories without alloc sections must not trip it.
#[test]
fn bench_diff_gates_on_allocation_regressions() {
    let dir = tempdir("profile-allocgate");
    let hist = dir.join("bench.json");
    std::fs::write(
        &hist,
        r#"{"runs":[
  {"git_sha":"aaaaaaa","date":"2026-08-01","cores_available":4,
   "serial":{"wall_s":10.0,"stages":{"simulate_s":4.0,"analyze_s":3.0}},
   "parallel":{"wall_s":5.0,"stages":{"simulate_s":2.0,"analyze_s":1.5},
     "alloc":{"simulate":{"alloc_bytes":1000000,"alloc_count":100,"peak_bytes":500000},
              "peak_bytes":500000}}},
  {"git_sha":"bbbbbbb","date":"2026-08-02","cores_available":4,
   "serial":{"wall_s":10.0,"stages":{"simulate_s":4.0,"analyze_s":3.0}},
   "parallel":{"wall_s":5.0,"stages":{"simulate_s":2.0,"analyze_s":1.5},
     "alloc":{"simulate":{"alloc_bytes":3000000,"alloc_count":300,"peak_bytes":1500000},
              "peak_bytes":1500000}}}
]}"#,
    )
    .expect("write history");
    let hist_str = hist.to_str().unwrap().to_string();

    let gated = run_raw(&[
        "bench",
        "diff",
        "--bench",
        &hist_str,
        "--fail-on-regress",
        "20",
    ]);
    assert_eq!(
        gated.status.code(),
        Some(3),
        "alloc regression with flat wall time must exit 3:\n{}{}",
        String::from_utf8_lossy(&gated.stdout),
        String::from_utf8_lossy(&gated.stderr)
    );
    let stderr = String::from_utf8_lossy(&gated.stderr);
    assert!(
        stderr.contains("alloc_bytes") || stderr.contains("peak_bytes"),
        "failure names the allocation gate: {stderr}"
    );

    // Same history, generous threshold: passes.
    run(&[
        "bench",
        "diff",
        "--bench",
        &hist_str,
        "--fail-on-regress",
        "250",
    ]);

    // Legacy history without alloc sections: the alloc gates are
    // skipped, not tripped.
    let legacy = dir.join("legacy.json");
    std::fs::write(
        &legacy,
        r#"{"runs":[
  {"git_sha":"aaaaaaa","date":"2026-08-01","cores_available":4,
   "serial":{"wall_s":10.0},"parallel":{"wall_s":5.0}},
  {"git_sha":"bbbbbbb","date":"2026-08-02","cores_available":4,
   "serial":{"wall_s":10.0},"parallel":{"wall_s":5.0}}
]}"#,
    )
    .expect("write history");
    run(&[
        "bench",
        "diff",
        "--bench",
        legacy.to_str().unwrap(),
        "--fail-on-regress",
        "10",
    ]);
}
