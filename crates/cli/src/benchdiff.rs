//! `hpcpower bench diff` — the perf-regression gate over the run
//! history that `cargo run -p hpcpower-bench --bin pipeline` appends to
//! `BENCH_pipeline.json`.
//!
//! Compares the latest run against a baseline run (`--baseline N` runs
//! earlier, default the previous one), prints per-stage wall-time and
//! allocation delta tables, and — when `--fail-on-regress PCT` is
//! given — exits with code 3 if a gate metric regressed by more than
//! PCT percent. Gates cover wall time (`wall_s`, `simulate_s`,
//! `analyze_s`, `ingest_s`) and allocation (`simulate_alloc_bytes`,
//! `peak_bytes`), each with a parallel→serial path fallback; runs
//! predating a stage (e.g. `ingest_s` before PR 10) skip that gate. Without the flag the
//! diff is informational and always exits 0, which is how
//! `scripts/tier1.sh` runs it (machines differ; history entries from
//! other hosts must not fail CI). A missing or sub-2-run history is
//! not an error either: there is no baseline yet, so the command says
//! so and exits 0.

use serde_json::Value;

use crate::args::Args;
use crate::errors::CliError;

/// Walks `path` through nested JSON objects to a number.
fn metric(run: &Value, path: &[&str]) -> Option<f64> {
    let mut v = run;
    for key in path {
        v = serde_json::find(v.as_object()?, key)?;
    }
    v.as_f64()
}

fn run_str(run: &Value, key: &str) -> String {
    run.as_object()
        .and_then(|o| serde_json::find(o, key))
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string()
}

/// Loads the run history, migrating a legacy single-run document (bare
/// object with a top-level `"system"` key) to a one-entry history.
/// A missing history file is `Ok(None)` — "no baseline yet" is a
/// normal state for a fresh checkout, not an error.
fn load_runs(path: &str) -> Result<Option<Vec<Value>>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let doc = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let entries = doc
        .as_object()
        .ok_or_else(|| format!("{path}: expected a JSON object"))?;
    if let Some(runs) = serde_json::find(entries, "runs") {
        let runs = runs
            .as_array()
            .ok_or_else(|| format!("{path}: 'runs' is not an array"))?;
        Ok(Some(runs.to_vec()))
    } else if serde_json::find(entries, "system").is_some() {
        Ok(Some(vec![doc.clone()]))
    } else {
        Err(format!("{path}: neither a 'runs' history nor a bare run"))
    }
}

/// The `(label, path)` wall-time rows of the comparison table.
const ROWS: &[(&str, &[&str])] = &[
    ("parallel.wall_s", &["parallel", "wall_s"]),
    ("parallel.simulate_s", &["parallel", "stages", "simulate_s"]),
    ("parallel.ingest_s", &["parallel", "stages", "ingest_s"]),
    ("parallel.index_s", &["parallel", "stages", "index_s"]),
    ("parallel.analyze_s", &["parallel", "stages", "analyze_s"]),
    ("parallel.report_s", &["parallel", "stages", "report_s"]),
    ("serial.wall_s", &["serial", "wall_s"]),
    ("serial.simulate_s", &["serial", "stages", "simulate_s"]),
    ("serial.ingest_s", &["serial", "stages", "ingest_s"]),
    ("serial.analyze_s", &["serial", "stages", "analyze_s"]),
    ("serial.report_s", &["serial", "stages", "report_s"]),
    ("speedup", &["speedup"]),
];

/// The `(label, path)` allocation rows of the comparison table, in
/// MiB. Legacy histories without the `alloc` section simply skip them.
const ALLOC_ROWS: &[(&str, &[&str])] = &[
    ("parallel alloc sim MiB", &["parallel", "alloc", "simulate", "alloc_bytes"]),
    ("parallel alloc analyze MiB", &["parallel", "alloc", "analyze", "alloc_bytes"]),
    ("parallel peak MiB", &["parallel", "alloc", "peak_bytes"]),
    ("serial alloc sim MiB", &["serial", "alloc", "simulate", "alloc_bytes"]),
    ("serial alloc analyze MiB", &["serial", "alloc", "analyze", "alloc_bytes"]),
    ("serial peak MiB", &["serial", "alloc", "peak_bytes"]),
];

fn delta_pct(base: f64, new: f64) -> Option<f64> {
    (base > 0.0).then(|| 100.0 * (new - base) / base)
}

/// Unit of a gate metric — decides how its values print.
#[derive(Clone, Copy)]
enum GateUnit {
    Seconds,
    Bytes,
}

impl GateUnit {
    fn fmt(self, v: f64) -> String {
        match self {
            GateUnit::Seconds => format!("{v:.3}s"),
            GateUnit::Bytes => format!("{:.1}MiB", v / (1024.0 * 1024.0)),
        }
    }
}

/// `hpcpower bench <subcommand>` dispatch. Only `diff` exists today.
pub fn cmd_bench(args: &Args) -> Result<(), CliError> {
    match args.positional.first().map(String::as_str) {
        Some("diff") => cmd_diff(args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown bench subcommand {other:?} (expected 'diff')"
        ))),
        None => Err(CliError::Usage("missing bench subcommand (expected 'diff')".into())),
    }
}

fn cmd_diff(args: &Args) -> Result<(), CliError> {
    let path = args.get("bench").unwrap_or("BENCH_pipeline.json");
    let baseline_back: usize = args.get_or("baseline", 1)?;
    if baseline_back == 0 {
        return Err("--baseline must be >= 1 (runs before the latest)".into());
    }
    let fail_pct: Option<f64> = args.get_parsed("fail-on-regress")?;
    if let Some(p) = fail_pct {
        if p < 0.0 {
            return Err(format!("--fail-on-regress {p} must be non-negative").into());
        }
    }

    let Some(runs) = load_runs(path)? else {
        outln!(
            "bench diff: no baseline yet ({path} does not exist); run \
             `cargo run --release -p hpcpower-bench --bin pipeline` to record one"
        )?;
        return Ok(());
    };
    let n = runs.len();
    if n < 2 {
        outln!(
            "bench diff: no baseline yet ({path} has {n} run(s), need 2); run \
             `cargo run --release -p hpcpower-bench --bin pipeline` to record more"
        )?;
        return Ok(());
    }
    let latest = &runs[n - 1];
    let base_idx = n
        .checked_sub(1 + baseline_back)
        .ok_or_else(|| format!("--baseline {baseline_back} out of range ({n} runs in history)"))?;
    let baseline = &runs[base_idx];

    outln!("bench diff: {path} ({n} runs)")?;
    outln!(
        "  baseline: run {}/{n}  {} {}",
        base_idx + 1,
        run_str(baseline, "git_sha"),
        run_str(baseline, "date"),
    )?;
    outln!(
        "  latest:   run {n}/{n}  {} {}",
        run_str(latest, "git_sha"),
        run_str(latest, "date"),
    )?;
    outln!()?;
    outln!("  {:<22} {:>10} {:>10} {:>8}", "metric", "baseline", "latest", "delta")?;
    for (label, mpath) in ROWS {
        let (Some(b), Some(l)) = (metric(baseline, mpath), metric(latest, mpath)) else {
            continue;
        };
        match delta_pct(b, l) {
            Some(d) => outln!("  {label:<22} {b:>10.3} {l:>10.3} {d:>+7.1}%")?,
            None => outln!("  {label:<22} {b:>10.3} {l:>10.3}      n/a")?,
        }
    }
    for (label, mpath) in ALLOC_ROWS {
        let (Some(b), Some(l)) = (metric(baseline, mpath), metric(latest, mpath)) else {
            continue;
        };
        const MIB: f64 = 1024.0 * 1024.0;
        match delta_pct(b, l) {
            Some(d) => {
                outln!("  {label:<22} {:>10.1} {:>10.1} {d:>+7.1}%", b / MIB, l / MIB)?
            }
            None => outln!("  {label:<22} {:>10.1} {:>10.1}      n/a", b / MIB, l / MIB)?,
        }
    }

    // Gate on end-to-end wall time AND the per-stage kernels: a hot-loop
    // regression can hide inside an otherwise-flat wall_s when another
    // stage got faster, so simulate_s and analyze_s are first-class gate
    // metrics, each with a serial-history fallback.
    // Allocation totals are gate metrics too: a bytes regression is a
    // perf regression that wall time may hide behind allocator reuse
    // (PR 5's scratch arenas exist precisely to keep them flat). Runs
    // predating the alloc section skip those gates via the find_map.
    let gates: &[(&str, GateUnit, &[&[&str]])] = &[
        (
            "wall_s",
            GateUnit::Seconds,
            &[&["parallel", "wall_s"], &["serial", "wall_s"]],
        ),
        (
            "simulate_s",
            GateUnit::Seconds,
            &[
                &["parallel", "stages", "simulate_s"],
                &["serial", "stages", "simulate_s"],
            ],
        ),
        (
            "analyze_s",
            GateUnit::Seconds,
            &[
                &["parallel", "stages", "analyze_s"],
                &["serial", "stages", "analyze_s"],
            ],
        ),
        // Ingestion is a first-class gated stage since PR 10; legacy
        // runs without it skip the gate via the find_map below.
        (
            "ingest_s",
            GateUnit::Seconds,
            &[
                &["parallel", "stages", "ingest_s"],
                &["serial", "stages", "ingest_s"],
            ],
        ),
        (
            "simulate_alloc_bytes",
            GateUnit::Bytes,
            &[
                &["parallel", "alloc", "simulate", "alloc_bytes"],
                &["serial", "alloc", "simulate", "alloc_bytes"],
            ],
        ),
        (
            "peak_bytes",
            GateUnit::Bytes,
            &[
                &["parallel", "alloc", "peak_bytes"],
                &["serial", "alloc", "peak_bytes"],
            ],
        ),
    ];

    // Timings from hosts with different core counts are not comparable;
    // report the diff but never gate across a hardware change.
    let cores = (
        metric(baseline, &["cores_available"]),
        metric(latest, &["cores_available"]),
    );
    let comparable_hosts = match cores {
        (Some(b), Some(l)) => b == l,
        _ => true, // legacy entries without the field: assume same host
    };

    let mut gated_any = false;
    let mut regressed: Vec<String> = Vec::new();
    outln!()?;
    for (name, unit, paths) in gates {
        let Some((label, base, latest_v)) = paths.iter().find_map(|p| {
            Some((p.join("."), metric(baseline, p)?, metric(latest, p)?))
        }) else {
            continue;
        };
        gated_any = true;
        match delta_pct(base, latest_v) {
            Some(d) => {
                outln!(
                    "gate {label}: {} -> {} ({d:+.1}%)",
                    unit.fmt(base),
                    unit.fmt(latest_v)
                )?;
                if let Some(limit) = fail_pct {
                    if d > limit && comparable_hosts {
                        regressed.push(format!("{name} ({label}) {d:+.1}% > {limit}%"));
                    }
                }
            }
            None => outln!("gate {label}: baseline is 0, delta undefined; not gating")?,
        }
    }
    if !gated_any {
        return Err(format!("{path}: runs carry no gate metrics").into());
    }
    if let Some(limit) = fail_pct {
        if !comparable_hosts {
            let (b, l) = cores;
            outln!(
                "cores_available changed ({} -> {}); timings not comparable, gate skipped",
                b.map_or("?".into(), |v| format!("{v}")),
                l.map_or("?".into(), |v| format!("{v}")),
            )?;
        } else if !regressed.is_empty() {
            for r in &regressed {
                eprintln!("REGRESSION: {r}");
            }
            return Err(CliError::BenchRegress(format!(
                "{} gate(s) regressed past --fail-on-regress {limit}%",
                regressed.len()
            )));
        } else {
            outln!("all gates within --fail-on-regress {limit}%")?;
        }
    }
    Ok(())
}
