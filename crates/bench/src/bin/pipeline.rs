//! Pipeline speedup harness: times trace materialization plus full
//! report generation at 1 thread and at all cores, and **appends** the
//! result to the run history in `BENCH_pipeline.json`.
//!
//! ```text
//! cargo run --release -p hpcpower-bench --bin pipeline             # Emmy scale
//! cargo run --release -p hpcpower-bench --bin pipeline -- --small  # smoke run
//! cargo run --release -p hpcpower-bench --bin pipeline -- --out path.json
//! ```
//!
//! The output file is `{"runs": [...]}` — one entry per invocation,
//! oldest first, each tagged with the git commit (`git_sha`), the UTC
//! `date`, the workload shape, per-stage wall times for the serial and
//! parallel configurations, and the span duration quantiles
//! (p50/p90/p99/max) of the parallel run. A pre-history file holding a
//! single bare run object is absorbed as the first history entry.
//! `hpcpower bench diff` consumes this history and gates on regressions.
//!
//! The parallel path is bit-deterministic (DESIGN.md, "Parallelism &
//! determinism"), so the serial and parallel runs produce the same
//! bytes; only the wall time differs. Available cores are recorded so
//! single-core results are not mistaken for a parallelism failure.
//!
//! Stage-level breakdowns (`stages`) come from the `hpcpower-obs` spans
//! the pipeline itself records: `simulate` (trace materialization),
//! `ingest` (chunk-parallel CSV ingestion of the freshly written trace;
//! bytes/s and rows/s land in the run's `ingest` section), `index`
//! (dataset index warm-up), `analyze` (machine-readable report), and
//! `report.render` (text report). The registry is reset before each
//! run so the spans belong to exactly one configuration.
//!
//! Each configuration also carries an `alloc` section — per-stage
//! `alloc_bytes`/`alloc_count`/`peak_bytes` from the installed
//! `ProfiledAllocator`, plus the run-wide `peak_bytes` high-water
//! mark — which `bench diff` gates on alongside wall time (allocation
//! regressions in the columnar kernel's scratch arenas would otherwise
//! hide behind flat wall timings).

use std::time::Instant;

use hpcpower::prediction::PredictionConfig;
use hpcpower::{json_report, report};
use hpcpower_sim::{simulate, with_threads, SimConfig};
use serde_json::Value;

// Allocation attribution for the per-stage `alloc` section of the
// history (bench diff gates on it). Gated: the harness turns profiling
// on explicitly below.
#[global_allocator]
static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;

/// Per-stage wall times extracted from the run's span snapshot.
struct Stages {
    simulate_s: f64,
    ingest_s: f64,
    index_s: f64,
    analyze_s: f64,
    report_s: f64,
}

/// Allocation traffic of one stage: total allocated bytes/count during
/// the stage plus the high-water live-byte peak reached within it.
#[derive(Clone, Copy, Default)]
struct AllocStage {
    alloc_bytes: u64,
    alloc_count: u64,
    peak_bytes: u64,
}

/// Runs `f` as an allocation-accounting stage: deltas of the process
/// totals plus a peak re-armed at the stage boundary.
fn alloc_stage<R>(f: impl FnOnce() -> R) -> (R, AllocStage) {
    let (c0, b0) = hpcpower_obs::alloc::totals();
    hpcpower_obs::alloc::reset_peak();
    let r = f();
    let (c1, b1) = hpcpower_obs::alloc::totals();
    (
        r,
        AllocStage {
            alloc_bytes: b1.saturating_sub(b0),
            alloc_count: c1.saturating_sub(c0),
            peak_bytes: hpcpower_obs::alloc::peak_bytes(),
        },
    )
}

/// Per-stage allocation traffic of one run configuration.
#[derive(Clone, Copy, Default)]
struct AllocStages {
    simulate: AllocStage,
    ingest: AllocStage,
    index: AllocStage,
    analyze: AllocStage,
    report: AllocStage,
}

impl AllocStages {
    /// Highest live-byte peak reached across the run's stages.
    fn run_peak(&self) -> u64 {
        self.simulate
            .peak_bytes
            .max(self.ingest.peak_bytes)
            .max(self.index.peak_bytes)
            .max(self.analyze.peak_bytes)
            .max(self.report.peak_bytes)
    }
}

/// `(count, p50_ns, p90_ns, p99_ns, max_ns)` of one span's durations.
type SpanQuantiles = (u64, f64, f64, f64, u64);

struct Run {
    threads_requested: usize,
    threads_used: usize,
    simulate_s: f64,
    report_s: f64,
    jobs: usize,
    ingest_bytes: usize,
    ingest_rows: usize,
    stages: Stages,
    alloc: AllocStages,
    quantiles: Vec<(String, SpanQuantiles)>,
}

impl Run {
    fn total_s(&self) -> f64 {
        self.simulate_s + self.report_s
    }

    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.total_s()
    }
}

fn span_secs(snap: &hpcpower_obs::Snapshot, name: &str) -> f64 {
    snap.span(name).map_or(0.0, |s| s.total_secs())
}

fn run_once(cfg: &SimConfig, pcfg: &PredictionConfig, threads: usize) -> Run {
    // Fresh registry per run: the stage spans below must describe this
    // configuration only.
    hpcpower_obs::reset();
    let mut cfg = cfg.clone();
    cfg.threads = threads;
    let threads_used = with_threads(threads, rayon::current_num_threads);
    let t0 = Instant::now();
    let (dataset, alloc_simulate) = alloc_stage(|| simulate(cfg));
    let simulate_s = t0.elapsed().as_secs_f64();
    // Ingest stage: round-trip the freshly simulated trace through the
    // CSV tables and time the chunk-parallel ingestion engine on the
    // bytes (the CSV *writing* stays outside the span — the stage gates
    // the reader).
    let mut jobs_csv = Vec::new();
    hpcpower_trace::csv::write_jobs(&mut jobs_csv, &dataset.jobs, &dataset.summaries)
        .expect("serialize jobs.csv");
    let mut system_csv = Vec::new();
    hpcpower_trace::csv::write_system(&mut system_csv, &dataset.system_series)
        .expect("serialize system.csv");
    let jobs_text = String::from_utf8(jobs_csv).expect("jobs.csv is UTF-8");
    let system_text = String::from_utf8(system_csv).expect("system.csv is UTF-8");
    let ingest_bytes = jobs_text.len() + system_text.len();
    let opts = hpcpower_trace::csv::ParseOptions::strict();
    let ((jobs_table, system_table), alloc_ingest) = alloc_stage(|| {
        with_threads(threads, || {
            hpcpower_obs::time("ingest", || {
                let jt = hpcpower_trace::read_jobs_str(&jobs_text, opts).expect("ingest jobs");
                let st =
                    hpcpower_trace::read_system_str(&system_text, opts).expect("ingest system");
                (jt, st)
            })
        })
    });
    assert_eq!(jobs_table.jobs.len(), dataset.jobs.len(), "ingest row count");
    let ingest_rows = jobs_table.jobs.len() + system_table.samples.len();
    drop((jobs_table, system_table, jobs_text, system_text));
    // Warm the memoized dataset index as its own stage, so the `analyze`
    // and `report.render` spans time the analyses rather than the first
    // section's incidental cache build.
    let ((), alloc_index) = alloc_stage(|| {
        hpcpower_obs::time("index", || {
            let _ = dataset.sorted_per_node_powers();
            let _ = dataset.user_rollups();
            let _ = dataset.app_rollups();
        })
    });
    let (full, alloc_analyze) = alloc_stage(|| {
        with_threads(threads, || {
            hpcpower_obs::time("analyze", || json_report::build(&dataset, pcfg))
        })
    });
    let t1 = Instant::now();
    let (text, alloc_report) =
        alloc_stage(|| with_threads(threads, || report::render_full(&dataset, pcfg)));
    let report_s = t1.elapsed().as_secs_f64();
    let snap = hpcpower_obs::snapshot();
    let stages = Stages {
        simulate_s: span_secs(&snap, "simulate"),
        ingest_s: span_secs(&snap, "ingest"),
        index_s: span_secs(&snap, "index"),
        analyze_s: span_secs(&snap, "analyze"),
        report_s: span_secs(&snap, "report.render"),
    };
    let quantiles = snap
        .spans
        .iter()
        .map(|(name, s)| {
            (
                name.clone(),
                (s.count, s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns),
            )
        })
        .collect();
    eprintln!(
        "  threads={threads} ({threads_used} workers): simulate {simulate_s:.2}s, \
         ingest {:.3}s ({:.1} MB/s), report {report_s:.2}s \
         ({} jobs, {} report bytes, {} analyses)",
        stages.ingest_s,
        if stages.ingest_s > 0.0 {
            ingest_bytes as f64 / stages.ingest_s / 1e6
        } else {
            0.0
        },
        dataset.len(),
        text.len(),
        usize::from(full.prediction.is_some()) + usize::from(full.powercap.is_some())
    );
    Run {
        threads_requested: threads,
        threads_used,
        simulate_s,
        report_s,
        jobs: dataset.len(),
        ingest_bytes,
        ingest_rows,
        stages,
        alloc: AllocStages {
            simulate: alloc_simulate,
            ingest: alloc_ingest,
            index: alloc_index,
            analyze: alloc_analyze,
            report: alloc_report,
        },
        quantiles,
    }
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days; the workspace has
/// no date crate).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn round3(v: f64) -> Value {
    Value::Num((v * 1e3).round() / 1e3)
}

fn config_json(run: &Run) -> Value {
    obj(vec![
        ("threads_requested", Value::UInt(run.threads_requested as u64)),
        ("threads_used", Value::UInt(run.threads_used as u64)),
        ("jobs", Value::UInt(run.jobs as u64)),
        ("simulate_s", round3(run.simulate_s)),
        ("report_s", round3(run.report_s)),
        ("wall_s", round3(run.total_s())),
        ("jobs_per_s", Value::Num((run.jobs_per_s() * 10.0).round() / 10.0)),
        (
            "stages",
            obj(vec![
                ("simulate_s", round3(run.stages.simulate_s)),
                ("ingest_s", round3(run.stages.ingest_s)),
                ("index_s", round3(run.stages.index_s)),
                ("analyze_s", round3(run.stages.analyze_s)),
                ("report_s", round3(run.stages.report_s)),
            ]),
        ),
        (
            "ingest",
            obj(vec![
                ("bytes", Value::UInt(run.ingest_bytes as u64)),
                ("rows", Value::UInt(run.ingest_rows as u64)),
                (
                    "bytes_per_s",
                    Value::Num(if run.stages.ingest_s > 0.0 {
                        (run.ingest_bytes as f64 / run.stages.ingest_s).round()
                    } else {
                        0.0
                    }),
                ),
                (
                    "rows_per_s",
                    Value::Num(if run.stages.ingest_s > 0.0 {
                        (run.ingest_rows as f64 / run.stages.ingest_s).round()
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
        (
            "alloc",
            obj(vec![
                ("simulate", alloc_stage_json(&run.alloc.simulate)),
                ("ingest", alloc_stage_json(&run.alloc.ingest)),
                ("index", alloc_stage_json(&run.alloc.index)),
                ("analyze", alloc_stage_json(&run.alloc.analyze)),
                ("report", alloc_stage_json(&run.alloc.report)),
                ("peak_bytes", Value::UInt(run.alloc.run_peak())),
            ]),
        ),
    ])
}

fn alloc_stage_json(a: &AllocStage) -> Value {
    obj(vec![
        ("alloc_bytes", Value::UInt(a.alloc_bytes)),
        ("alloc_count", Value::UInt(a.alloc_count)),
        ("peak_bytes", Value::UInt(a.peak_bytes)),
    ])
}

fn quantiles_json(run: &Run) -> Value {
    Value::Object(
        run.quantiles
            .iter()
            .map(|(name, (count, p50, p90, p99, max_ns))| {
                (
                    name.clone(),
                    obj(vec![
                        ("count", Value::UInt(*count)),
                        ("p50_ns", Value::Num(p50.round())),
                        ("p90_ns", Value::Num(p90.round())),
                        ("p99_ns", Value::Num(p99.round())),
                        ("max_ns", Value::UInt(*max_ns)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Prior runs from an existing history file. A pre-history file holding
/// one bare run object (recognized by its top-level `"system"` key) is
/// migrated to a single-entry history.
fn load_history(path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::parse(&text) else {
        eprintln!("warning: {path} is not valid JSON; starting a fresh history");
        return Vec::new();
    };
    match doc.as_object() {
        Some(entries) => {
            if let Some(runs) = serde_json::find(entries, "runs").and_then(Value::as_array) {
                runs.to_vec()
            } else if serde_json::find(entries, "system").is_some() {
                eprintln!("migrating legacy single-run {path} into run history");
                vec![doc.clone()]
            } else {
                eprintln!("warning: {path} has neither 'runs' nor a bare run; starting fresh");
                Vec::new()
            }
        }
        None => Vec::new(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    // The stage breakdowns ride on the pipeline's own telemetry spans;
    // the per-stage alloc sections need the allocation gate too (the
    // wrapper above is inert until this call).
    hpcpower_obs::enable();
    hpcpower_obs::enable_alloc_profiling();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = if small {
        SimConfig::emmy_small(20200518)
    } else {
        // Emmy preset scaled to a tractable single-run size; the full
        // 560-node, 5-month preset is the `report` bin's job.
        SimConfig::emmy(20200518).scaled_down(160, 45 * 1440, 120)
    };
    let pcfg = PredictionConfig {
        n_splits: if small { 2 } else { 3 },
        ..Default::default()
    };

    eprintln!(
        "pipeline bench: {} ({} nodes, {} days), {cores} cores available",
        cfg.system.name,
        cfg.system.nodes,
        cfg.horizon_min / 1440
    );
    let serial = run_once(&cfg, &pcfg, 1);
    let parallel = run_once(&cfg, &pcfg, 0);
    let speedup = serial.total_s() / parallel.total_s();

    let run = obj(vec![
        ("git_sha", Value::Str(git_sha())),
        ("date", Value::Str(today_utc())),
        ("system", Value::Str(cfg.system.name.clone())),
        ("nodes", Value::UInt(u64::from(cfg.system.nodes))),
        ("days", Value::UInt(cfg.horizon_min / 1440)),
        ("cores_available", Value::UInt(cores as u64)),
        ("serial", config_json(&serial)),
        ("parallel", config_json(&parallel)),
        ("speedup", Value::Num((speedup * 100.0).round() / 100.0)),
        ("quantiles", quantiles_json(&parallel)),
    ]);

    let mut runs = load_history(&out);
    runs.push(run);
    let n_runs = runs.len();
    let doc = obj(vec![("runs", Value::Array(runs))]);
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench history");
    std::fs::write(&out, &json).expect("write bench output");
    eprintln!("speedup {speedup:.2}x on {cores} cores -> {out} ({n_runs} runs in history)");
    println!("{json}");
}
