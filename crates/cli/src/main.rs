//! `hpcpower` — the command-line front end of the HPC power suite.
//!
//! ```text
//! hpcpower simulate --system emmy --seed 7 --out traces/emmy
//! hpcpower analyze  --data traces/emmy/dataset.json
//! hpcpower compare  --a traces/emmy/dataset.json --b traces/meggie/dataset.json
//! hpcpower predict  --data traces/emmy/dataset.json --user 3 --nodes 8 --walltime-h 6
//! hpcpower powercap --data traces/emmy/dataset.json
//! ```
//!
//! Run `hpcpower help` for the full surface.

#[macro_use]
mod out;

mod args;
mod benchdiff;
mod errors;
mod profile;
mod watchdog;

// Allocation attribution for --profile-out. The wrapper's gate is off
// by default, so every command that doesn't ask for profiling pays one
// relaxed atomic load per allocator call (see hpcpower_obs::alloc).
#[global_allocator]
static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;

use std::path::{Path, PathBuf};
use std::time::Duration;

use args::Args;
use errors::{CliError, EXIT_INTERRUPTED, EXIT_IO};
use hpcpower::prediction::{self, PredictionConfig};
use hpcpower::report;
use hpcpower_ml::{DecisionTree, Regressor, TreeConfig};
use hpcpower_obs::RetryPolicy;
use hpcpower_sim::{
    run_checkpointed, with_threads, CheckpointOptions, ClusterSim, FaultConfig, SimConfig,
    SimOutput, DEFAULT_CHUNK_JOBS,
};
use hpcpower_trace::csv::ParseOptions;
use hpcpower_trace::json::Sections;
use hpcpower_trace::recover::{atomic_write_retry, RealFs};
use hpcpower_trace::repair::{repair, RepairConfig, RepairPolicy};
use hpcpower_trace::{csv, json, validate, SystemSpec, TraceDataset};

const HELP: &str = "\
hpcpower — HPC job power characterization & prediction

USAGE: hpcpower <command> [flags]

GLOBAL FLAGS:
  --threads N        Worker threads for simulation and report generation
                     (default 0 = all cores). Output is bit-identical for
                     any value.
  --metrics-out PATH Collect pipeline telemetry (spans, counters, gauges,
                     histograms) and write it to PATH.
                     Command output bytes are unaffected.
  --metrics-format F Format of the --metrics-out file: 'json' (one JSON
                     document, default) or 'prom' (Prometheus text
                     exposition v0.0.4).
  --trace-out PATH   Record a span event timeline and write it as Chrome
                     trace-event JSON, loadable in Perfetto /
                     chrome://tracing. Command output bytes are
                     unaffected.
  --log-format FMT   Print a telemetry summary to stderr after the
                     command: 'text' (aligned table) or 'json' (one
                     JSON object per metric).
  --profile-out PATH[,FMT]  Continuously profile the command: record
                     the span timeline plus per-span allocation
                     attribution and write a profile to PATH. FMT is
                     'folded' (collapsed stacks), 'svg' (self-contained
                     flamegraph), or 'speedscope' (JSON for
                     speedscope.app); default inferred from the
                     extension (.svg/.json), else folded. Command
                     output bytes are unaffected.
  --quiet            Suppress progress and telemetry chatter on stderr
                     (stdout and --metrics-out files are unaffected).
  --stage-timeout S  Watchdog: abort the process when no pipeline
                     progress heartbeat lands for S seconds. Exits 6
                     (resumable) when the run is checkpointed, else 5.

A flag that is neither global nor listed under the command exits 2.

COMMANDS:
  simulate   Generate a calibrated cluster trace and write it to disk
             --system emmy|meggie   (default emmy)
             --seed N               (default 1)
             --nodes N --days D --users U   scale the preset down
             --out DIR              (default ./trace-<system>)
             --faults R             inject monitoring faults at rate R
                                    (0..1; dirty output skips validation)
             --checkpoint-dir DIR   commit the run in durable chunks to a
                                    resumable run directory (crash-safe;
                                    outputs stay byte-identical)
             --chunk-jobs N         jobs per checkpoint chunk (default 512)
             --resume DIR           resume an interrupted checkpointed run;
                                    the directory pins the workload, only
                                    --threads/--out may be overridden
             --chaos-kill-after-chunk N   (testing) SIGKILL self right
                                    after committing chunk N
             --chaos-stall-at-chunk N     (testing) stall before chunk N
             --chaos-stall-ms M     stall duration (default 1000)
  ingest     Parse raw jobs/system CSVs, repair them, report data quality
             (chunk-parallel zero-copy engine; output is byte-identical
             at any thread count)
             --jobs PATH            jobs.csv (required)
             --system PATH          system.csv (optional)
             --threads N            ingest worker threads (default 0 =
                                    all cores)
             --spec emmy|meggie     hardware spec (default emmy)
             --nodes N              scale the spec to N nodes
             --strict | --lenient   fail fast vs quarantine bad rows
                                    (default strict)
             --error-budget N       max quarantined rows in lenient mode
                                    (default 1000; exceeding it exits 2)
             --repair-policy P      drop-job|hold-last|linear
                                    (default drop-job, as in the paper)
             --out DIR              write repaired dataset.json + quality
             --json                 print the data-quality report as JSON
  analyze    Run every analysis of the paper on a dataset
             --data PATH            dataset.json (from `simulate`)
             --splits N             prediction splits (default 5)
             --json                 emit machine-readable figure data
             --repair-policy P      repair the dataset before analysis
                                    (drop-job|hold-last|linear) and add a
                                    data-quality section to the report
  compare    Two-system report including the Fig. 4 app comparison
             --a PATH --b PATH
             --splits N             prediction splits (default 3)
  predict    Train the BDT on a dataset and predict one submission
             --data PATH --user U --nodes N --walltime-h H
  powercap   Static power-cap what-if sweep
             --data PATH
  profile report  Top-N self-time/self-bytes table of a profile written
             by --profile-out (folded or speedscope; SVG is render-only)
             --profile PATH         profile to read (required)
             --top N                rows to show (default 15)
  profile diff  Compare two profiles path-by-path, hottest movers first
             --a PATH --b PATH      profiles to compare (required)
             --top N                rows to show (default 15)
  bench diff Perf-regression gate over the BENCH_pipeline.json history
             --bench PATH           (default BENCH_pipeline.json)
             --baseline N           compare against N runs before the
                                    latest (default 1)
             --fail-on-regress PCT  exit 3 if a gate metric (wall time,
                                    per-stage time, allocated or peak
                                    bytes) regressed more than PCT
                                    percent; exits 0 with a \"no
                                    baseline yet\" note when the history
                                    has fewer than two runs
  help       Show this text

EXIT CODES:
  0 success; 2 usage or invalid input; 3 bench regression gate;
  5 unrecoverable I/O, corruption, or a stalled non-checkpointed run;
  6 resumable interrupt — a checkpointed run stopped at a chunk
  boundary, rerun with --resume RUN_DIR.
";

/// Flags every command accepts: threading, telemetry files, and
/// supervision.
const GLOBAL_FLAGS: &[&str] = &[
    "threads", "quiet", "metrics-out", "metrics-format", "trace-out", "log-format",
    "profile-out", "stage-timeout",
];

/// The flags `command` takes on top of [`GLOBAL_FLAGS`], or `None` for
/// an unknown command (which dispatch rejects by name).
fn command_flags(command: Option<&str>) -> Option<&'static [&'static str]> {
    Some(match command {
        Some("simulate") => &[
            "system", "seed", "nodes", "days", "users", "out", "faults", "checkpoint-dir",
            "chunk-jobs", "resume", "chaos-kill-after-chunk", "chaos-stall-at-chunk",
            "chaos-stall-ms",
        ],
        Some("ingest") => &[
            "jobs", "system", "spec", "nodes", "strict", "lenient", "error-budget",
            "repair-policy", "out", "json",
        ],
        Some("analyze") => &["data", "splits", "json", "repair-policy"],
        Some("compare") => &["a", "b", "splits"],
        Some("predict") => &["data", "user", "nodes", "walltime-h"],
        Some("powercap") => &["data"],
        Some("bench") => &["bench", "baseline", "fail-on-regress"],
        Some("profile") => &["profile", "a", "b", "top"],
        Some("help") | None => &[],
        Some(_) => return None,
    })
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `hpcpower help` for usage");
    std::process::exit(2);
}

/// Loads the `sections` a command reads from `path` and validates them;
/// sections left out are only syntax-checked (see [`json::Sections`]).
fn load(path: &str, sections: Sections) -> TraceDataset {
    let dataset = json::load_sections(Path::new(path), sections)
        .unwrap_or_else(|e| fail(format!("cannot load {path}: {e}")));
    hpcpower_obs::time("trace.validate", || validate::validate(&dataset))
        .unwrap_or_else(|e| fail(format!("{path} is invalid: {e}")));
    dataset
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    // --resume: the run directory pins the workload; only execution
    // knobs (threads, output location) may be overridden.
    if let Some(run_dir) = args.get("resume") {
        for pinned in [
            "system", "seed", "nodes", "days", "users", "faults", "checkpoint-dir",
            "chunk-jobs", "chaos-kill-after-chunk", "chaos-stall-at-chunk",
        ] {
            if args.has(pinned) {
                return Err(CliError::Usage(format!(
                    "--{pinned} cannot be combined with --resume \
                     (the run directory pins the workload)"
                )));
            }
        }
        let threads: Option<usize> = args.get_parsed("threads")?;
        if !args.has("quiet") {
            eprintln!("resuming checkpointed run from {run_dir}...");
        }
        let sim_out = hpcpower_sim::resume(Path::new(run_dir), threads, &RealFs)?;
        return write_simulate_outputs(args, sim_out, "trace-resumed");
    }

    let system = args.get("system").unwrap_or("emmy");
    let seed: u64 = args.get_or("seed", 1)?;
    let mut cfg = match system {
        "emmy" => SimConfig::emmy(seed),
        "meggie" => SimConfig::meggie(seed),
        other => return Err(CliError::Usage(format!("unknown system {other:?} (emmy|meggie)"))),
    };
    if args.has("nodes") || args.has("days") || args.has("users") {
        // Unspecified dimensions keep the preset's full-scale value, so
        // `--nodes 100` alone does not silently shrink the horizon too.
        let nodes: u32 = args.get_or("nodes", cfg.system.nodes)?;
        let days: u64 = args.get_or("days", cfg.horizon_min / 1440)?;
        let users: usize = args.get_or("users", cfg.population.n_users)?;
        cfg = cfg.scaled_down(nodes, days * 1440, users);
    }
    cfg.threads = args.get_or("threads", 0)?;
    let fault_rate: f64 = args.get_or("faults", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(CliError::Usage(format!("--faults {fault_rate} out of range (0..1)")));
    }
    if fault_rate > 0.0 {
        cfg.faults = FaultConfig::at_rate(fault_rate);
    }
    if !args.has("quiet") {
        eprintln!(
            "simulating {} ({} nodes, {} days, seed {seed})...",
            cfg.system.name,
            cfg.system.nodes,
            cfg.horizon_min / 1440
        );
    }
    let sim_out = match args.get("checkpoint-dir") {
        Some(dir) => {
            let mut opts = CheckpointOptions::new(dir);
            opts.chunk_jobs = args.get_or("chunk-jobs", DEFAULT_CHUNK_JOBS)?;
            if opts.chunk_jobs == 0 {
                return Err(CliError::Usage("--chunk-jobs must be >= 1".into()));
            }
            opts.chaos.kill_after_chunk = args.get_parsed("chaos-kill-after-chunk")?;
            if let Some(at) = args.get_parsed::<u64>("chaos-stall-at-chunk")? {
                let ms: u64 = args.get_or("chaos-stall-ms", 1000)?;
                opts.chaos.stall_before_chunk = Some((at, Duration::from_millis(ms)));
            }
            run_checkpointed(&cfg, &opts, &RealFs)?
        }
        None => {
            for needs_ckpt in ["chunk-jobs", "chaos-kill-after-chunk", "chaos-stall-at-chunk"] {
                if args.has(needs_ckpt) {
                    return Err(CliError::Usage(format!(
                        "--{needs_ckpt} requires --checkpoint-dir"
                    )));
                }
            }
            ClusterSim::new(cfg).run()
        }
    };
    write_simulate_outputs(args, sim_out, &format!("trace-{system}"))
}

/// Validates (or reports faults for) a finished simulation and durably
/// publishes its artifacts.
fn write_simulate_outputs(
    args: &Args,
    sim_out: SimOutput,
    default_out: &str,
) -> Result<(), CliError> {
    let dataset = sim_out.dataset;
    match &sim_out.faults {
        // A faulted trace is deliberately dirty; `ingest` repairs it.
        Some(f) => outln!(
            "faults injected: {} total ({} crashes, {} samples dropped, \
             {} spikes, {} stuck rows, {} system samples dropped, \
             {} duplicated, {} swapped)",
            f.total(),
            f.crashes,
            f.samples_dropped + f.outage_samples,
            f.spikes,
            f.stuck_rows,
            f.system_samples_dropped,
            f.duplicated_rows,
            f.swapped_rows
        )?,
        None => hpcpower_obs::time("simulate.validate", || validate::validate(&dataset))
            .map_err(|e| e.to_string())?,
    }
    let out: PathBuf = args
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default_out));
    std::fs::create_dir_all(&out)
        .map_err(|e| CliError::io(format!("cannot create {}: {e}", out.display())))?;
    let (jobs_csv, system_csv) = hpcpower_obs::time("simulate.encode.csv", || {
        let (mut jobs_csv, mut system_csv) = (Vec::new(), Vec::new());
        csv::write_jobs(&mut jobs_csv, &dataset.jobs, &dataset.summaries)?;
        csv::write_system(&mut system_csv, &dataset.system_series)?;
        Ok::<_, hpcpower_trace::TraceError>((jobs_csv, system_csv))
    })
    .map_err(CliError::io)?;
    let mut dataset_json = Vec::new();
    hpcpower_obs::time("simulate.encode.json", || {
        json::write_dataset(&mut dataset_json, &dataset)
    })
    .map_err(CliError::io)?;
    let artifacts = [
        ("jobs.csv", jobs_csv),
        ("system.csv", system_csv),
        ("dataset.json", dataset_json),
    ];
    hpcpower_obs::time("simulate.publish", || {
        artifacts
            .iter()
            .try_for_each(|(name, bytes)| publish(&out.join(name), bytes))
    })?;
    outln!(
        "{}: {} jobs, {} instrumented series -> {}",
        dataset.system.name,
        dataset.len(),
        dataset.instrumented.len(),
        out.display()
    )
}

/// Durably publishes one output artifact: atomic temp+fsync+rename with
/// a manifest sidecar, retrying transient I/O errors with backoff.
fn publish(path: &Path, bytes: &[u8]) -> Result<(), CliError> {
    atomic_write_retry(&RealFs, path, bytes, &RetryPolicy::default())
        .map_err(|e| CliError::io(format!("cannot write {}: {e}", path.display())))
}

fn cmd_analyze(args: &Args) -> Result<(), CliError> {
    let path = args.get("data").ok_or("missing --data PATH")?;
    let splits: usize = args.get_or("splits", 5)?;
    // With --repair-policy the dataset may be dirty: load it without the
    // up-front validation, repair it, and only then insist on validity.
    // Repair rewrites series, so it decodes every section.
    let (dataset, quality) = match args.get("repair-policy") {
        Some(p) => {
            let policy: RepairPolicy = p.parse()?;
            let mut dataset = json::load_dataset(Path::new(path))
                .map_err(|e| format!("cannot load {path}: {e}"))?;
            let quality = repair(&mut dataset, &RepairConfig::with_policy(policy));
            validate::validate(&dataset)
                .map_err(|e| format!("{path} is invalid even after repair: {e}"))?;
            (dataset, Some(quality))
        }
        None => (load(path, Sections::Analysis), None),
    };
    let cfg = PredictionConfig {
        n_splits: splits,
        ..Default::default()
    };
    let threads: usize = args.get_or("threads", 0)?;
    if args.has("json") {
        let full = with_threads(threads, || {
            hpcpower::json_report::build_with(&dataset, &cfg, quality.clone())
        });
        let text = serde_json::to_string_pretty(&full).map_err(|e| e.to_string())?;
        outln!("{text}")?;
    } else {
        out!(
            "{}",
            with_threads(threads, || report::render_full_with(
                &dataset,
                &cfg,
                quality.as_ref()
            ))
        )?;
    }
    Ok(())
}

fn cmd_ingest(args: &Args) -> Result<(), CliError> {
    let jobs_path = args.get("jobs").ok_or("missing --jobs PATH")?;
    if args.has("strict") && args.has("lenient") {
        return Err("--strict and --lenient are mutually exclusive".into());
    }
    let budget: usize = args.get_or("error-budget", 1000)?;
    let opts = if args.has("lenient") {
        ParseOptions::lenient(budget)
    } else {
        ParseOptions::strict()
    };
    let policy: RepairPolicy = match args.get("repair-policy") {
        Some(p) => p.parse()?,
        None => RepairPolicy::default(),
    };
    let mut spec = match args.get("spec").unwrap_or("emmy") {
        "emmy" => SystemSpec::emmy(),
        "meggie" => SystemSpec::meggie(),
        other => return Err(format!("unknown spec {other:?} (emmy|meggie)").into()),
    };
    if args.has("nodes") {
        spec = spec.scaled(args.get_or("nodes", spec.nodes)?);
    }

    // Parse. Each file is read once into a single buffer and handed to
    // the chunk-parallel ingestion engine on a pool of --threads
    // workers (0 = all cores); results are identical at any thread
    // count. In lenient mode malformed rows are quarantined up to the
    // error budget; exceeding it (or any strict-mode error) exits
    // non-zero with the line/column of the offending row.
    let threads: usize = args.get_or("threads", 0)?;
    let jobs_text = std::fs::read_to_string(jobs_path)
        .map_err(|e| format!("cannot open {jobs_path}: {e}"))?;
    let jobs_table = with_threads(threads, || hpcpower_trace::read_jobs_str(&jobs_text, opts))
        .map_err(|e| format!("{jobs_path}: {e}"))?;
    drop(jobs_text);
    let mut quarantined = jobs_table.quarantined;
    let system_series = match args.get("system") {
        Some(sys_path) => {
            let sys_text = std::fs::read_to_string(sys_path)
                .map_err(|e| format!("cannot open {sys_path}: {e}"))?;
            let table =
                with_threads(threads, || hpcpower_trace::read_system_str(&sys_text, opts))
                    .map_err(|e| format!("{sys_path}: {e}"))?;
            quarantined.extend(table.quarantined);
            table.samples
        }
        None => Vec::new(),
    };
    for row in &quarantined {
        eprintln!("quarantined line {}: {}", row.line, row.message);
    }

    // Repair: user/app namespaces and anything out of range are
    // reconstructed; missing values follow the chosen policy. Symbolic
    // user/app columns arrive pre-interned: the name tables carry the
    // dense-id namespaces directly.
    let user_count = jobs_table.user_names.len() as u32;
    let mut dataset = TraceDataset {
        system: spec,
        jobs: jobs_table.jobs,
        summaries: jobs_table.summaries,
        system_series,
        instrumented: Vec::new(),
        app_names: jobs_table.app_names,
        user_count,
        index: Default::default(),
    };
    let mut repair_cfg = RepairConfig::with_policy(policy);
    repair_cfg.rows_quarantined = quarantined.len() as u64;
    let quality = repair(&mut dataset, &repair_cfg);
    validate::validate(&dataset)
        .map_err(|e| format!("dataset is invalid even after repair: {e}"))?;

    if let Some(out) = args.get("out") {
        let out = PathBuf::from(out);
        std::fs::create_dir_all(&out)
            .map_err(|e| CliError::io(format!("cannot create {}: {e}", out.display())))?;
        let mut dataset_json = Vec::new();
        json::write_dataset(&mut dataset_json, &dataset).map_err(CliError::io)?;
        publish(&out.join("dataset.json"), &dataset_json)?;
        let quality_json =
            serde_json::to_string_pretty(&quality).map_err(|e| e.to_string())?;
        publish(&out.join("quality.json"), quality_json.as_bytes())?;
    }
    if args.has("json") {
        let text = serde_json::to_string_pretty(&quality).map_err(|e| e.to_string())?;
        outln!("{text}")?;
    } else {
        out!("{}", report::render_data_quality(&quality))?;
        outln!(
            "{}: {} jobs ingested ({} repaired records)",
            dataset.system.name,
            dataset.len(),
            quality.rows_repaired()
        )?;
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), CliError> {
    let a = load(args.get("a").ok_or("missing --a PATH")?, Sections::Analysis);
    let b = load(args.get("b").ok_or("missing --b PATH")?, Sections::Analysis);
    let cfg = PredictionConfig {
        n_splits: args.get_or("splits", 3)?,
        ..Default::default()
    };
    let threads: usize = args.get_or("threads", 0)?;
    out!(
        "{}",
        with_threads(threads, || report::render_pair(&a, &b, &cfg))
    )?;
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), CliError> {
    let dataset = load(
        args.get("data").ok_or("missing --data PATH")?,
        Sections::Prediction,
    );
    let user: u32 = args.get_parsed("user")?.ok_or("missing --user U")?;
    let nodes: f64 = args.get_parsed("nodes")?.ok_or("missing --nodes N")?;
    let walltime_h: f64 = args
        .get_parsed("walltime-h")?
        .ok_or("missing --walltime-h H")?;
    let data = hpcpower_obs::time("prediction.build_ml_dataset", || {
        prediction::build_ml_dataset(&dataset)
    });
    let model = hpcpower_obs::time("ml.fit", || DecisionTree::fit(&data, TreeConfig::default()))
        .map_err(|e| e.to_string())?;
    let w = model.predict(user, nodes, walltime_h * 60.0);
    outln!(
        "predicted per-node power: {w:.1} W  ({:.0}% of the {} W node TDP)",
        100.0 * w / dataset.system.node_tdp_w,
        dataset.system.node_tdp_w
    )?;
    let cap = (w * 1.15).min(dataset.system.node_tdp_w);
    outln!("suggested static cap (+15% margin, per the paper): {cap:.0} W/node")?;
    Ok(())
}

fn cmd_powercap(args: &Args) -> Result<(), CliError> {
    let dataset = load(
        args.get("data").ok_or("missing --data PATH")?,
        Sections::Analysis,
    );
    let cfg = PredictionConfig {
        n_splits: 3,
        ..Default::default()
    };
    let threads: usize = args.get_or("threads", 0)?;
    out!(
        "{}",
        with_threads(threads, || report::render_powercap(&dataset, &cfg))
    )?;
    Ok(())
}

/// Telemetry options parsed from the global flags. Telemetry is enabled
/// iff `--metrics-out`, `--trace-out`, `--log-format`, or
/// `--profile-out` is given; otherwise every instrumentation point in
/// the pipeline stays on its disabled fast path. The event timeline has
/// a second gate on top and only records when `--trace-out` or
/// `--profile-out` asks for it; the allocation gate is opened by
/// `--profile-out` alone.
struct Telemetry {
    metrics_out: Option<PathBuf>,
    metrics_format: hpcpower_obs::MetricsFormat,
    trace_out: Option<PathBuf>,
    profile_out: Option<(PathBuf, hpcpower_obs::ProfileFormat)>,
    log_format: Option<hpcpower_obs::LogFormat>,
    quiet: bool,
}

/// Parses `--profile-out PATH[,folded|svg|speedscope]`. A trailing
/// comma-separated token must be a known format name; without one the
/// format is inferred from the path's extension.
fn parse_profile_out(raw: &str) -> Result<(PathBuf, hpcpower_obs::ProfileFormat), String> {
    if raw.is_empty() {
        return Err("--profile-out needs a PATH".into());
    }
    if let Some((path, fmt)) = raw.rsplit_once(',') {
        let format = fmt
            .parse::<hpcpower_obs::ProfileFormat>()
            .map_err(|e| format!("--profile-out: {e}"))?;
        if path.is_empty() {
            return Err("--profile-out needs a PATH before the format".into());
        }
        return Ok((PathBuf::from(path), format));
    }
    Ok((PathBuf::from(raw), hpcpower_obs::ProfileFormat::infer(raw)))
}

impl Telemetry {
    fn from_args(args: &Args) -> Result<Option<Self>, String> {
        let metrics_out = args.get("metrics-out").map(PathBuf::from);
        let metrics_format = args
            .get("metrics-format")
            .map(|s| s.parse::<hpcpower_obs::MetricsFormat>())
            .transpose()?
            .unwrap_or_default();
        let trace_out = args.get("trace-out").map(PathBuf::from);
        let profile_out = args
            .get("profile-out")
            .map(parse_profile_out)
            .transpose()?;
        let log_format = args
            .get("log-format")
            .map(|s| s.parse::<hpcpower_obs::LogFormat>())
            .transpose()?;
        if metrics_out.is_none()
            && trace_out.is_none()
            && profile_out.is_none()
            && log_format.is_none()
        {
            return Ok(None);
        }
        Ok(Some(Self {
            metrics_out,
            metrics_format,
            trace_out,
            profile_out,
            log_format,
            quiet: args.has("quiet"),
        }))
    }

    fn wants_timeline(&self) -> bool {
        self.trace_out.is_some() || self.profile_out.is_some()
    }

    fn wants_alloc_profiling(&self) -> bool {
        self.profile_out.is_some()
    }

    /// Writes the profile/metrics/trace files and/or prints the stderr
    /// summary. The profile graph is built (and its `obs.profile.*`
    /// meta-gauges recorded) before the metrics snapshot is taken, so
    /// the snapshot describes the profile it ships with.
    fn emit(&self) -> Result<(), String> {
        if let Some((path, format)) = &self.profile_out {
            let timeline = hpcpower_obs::timeline_snapshot();
            let mut graph = hpcpower_obs::ProfileGraph::from_timeline(&timeline);
            if hpcpower_obs::alloc_profiling_enabled() {
                graph.attach_alloc(&hpcpower_obs::alloc_snapshot());
            }
            hpcpower_obs::gauge_set("obs.profile.nodes", graph.nodes.len() as f64);
            hpcpower_obs::gauge_set("obs.profile.events", graph.events as f64);
            hpcpower_obs::gauge_set("obs.profile.threads", graph.threads as f64);
            hpcpower_obs::gauge_set(
                "obs.profile.orphan_events",
                (graph.orphan_begins + graph.orphan_ends) as f64,
            );
            hpcpower_obs::gauge_set(
                "obs.profile.dropped_events",
                graph.dropped_events as f64,
            );
            if graph.dropped_events > 0 && !self.quiet {
                eprintln!(
                    "warning: timeline ring wrapped, {} oldest events dropped before \
                     profiling (raise HPCPOWER_OBS_TIMELINE_CAPACITY to keep more)",
                    graph.dropped_events
                );
            }
            std::fs::write(path, hpcpower_obs::render_profile(&graph, *format))
                .map_err(|e| format!("cannot write profile to {}: {e}", path.display()))?;
        }
        let snap = hpcpower_obs::snapshot();
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, hpcpower_obs::render_metrics(&snap, self.metrics_format))
                .map_err(|e| format!("cannot write metrics to {}: {e}", path.display()))?;
        }
        if let Some(path) = &self.trace_out {
            let timeline = hpcpower_obs::timeline_snapshot();
            if timeline.dropped > 0 && !self.quiet {
                eprintln!(
                    "warning: timeline ring wrapped, {} oldest events dropped \
                     (raise HPCPOWER_OBS_TIMELINE_CAPACITY to keep more)",
                    timeline.dropped
                );
            }
            std::fs::write(path, hpcpower_obs::export::chrome_trace(&timeline))
                .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
        }
        if let Some(fmt) = self.log_format {
            if !self.quiet {
                eprint!("{}", hpcpower_obs::render(&snap, fmt));
            }
        }
        Ok(())
    }
}

fn main() {
    let args = Args::from_env().unwrap_or_else(|e| fail(e));
    if let Some(own) = command_flags(args.command.as_deref()) {
        if let Err(e) = args.check_flags(GLOBAL_FLAGS, own) {
            fail(e);
        }
    }
    let telemetry = Telemetry::from_args(&args).unwrap_or_else(|e| fail(e));
    if let Some(t) = &telemetry {
        hpcpower_obs::enable();
        if t.wants_timeline() {
            hpcpower_obs::enable_timeline();
        }
        if t.wants_alloc_profiling() {
            hpcpower_obs::enable_alloc_profiling();
        }
    }
    // Global --stage-timeout: arm the heartbeat watchdog. A stall on a
    // checkpointed simulate exits 6 (the run directory resumes exactly
    // where it stopped); anything else exits 5.
    let supervisor = match args.get_parsed::<f64>("stage-timeout").unwrap_or_else(|e| fail(e)) {
        Some(secs) if secs > 0.0 => {
            let resumable = args.command.as_deref() == Some("simulate")
                && (args.has("checkpoint-dir") || args.has("resume"));
            let exit_code = if resumable { EXIT_INTERRUPTED } else { EXIT_IO };
            Some(watchdog::Supervisor::start(
                Duration::from_secs_f64(secs),
                exit_code,
                args.has("quiet"),
            ))
        }
        Some(secs) => fail(format!("--stage-timeout {secs} must be positive")),
        None => None,
    };
    // The command span closes before `emit` snapshots the registry, so
    // the top-level timing ("analyze", "simulate", ...) is included.
    let result: Result<(), CliError> = match args.command.as_deref() {
        Some("simulate") => hpcpower_obs::time("simulate.cmd", || cmd_simulate(&args)),
        Some("ingest") => hpcpower_obs::time("ingest", || cmd_ingest(&args)),
        Some("analyze") => hpcpower_obs::time("analyze", || cmd_analyze(&args)),
        Some("compare") => hpcpower_obs::time("compare", || cmd_compare(&args)),
        Some("predict") => hpcpower_obs::time("predict", || cmd_predict(&args)),
        Some("powercap") => hpcpower_obs::time("powercap", || cmd_powercap(&args)),
        Some("bench") => benchdiff::cmd_bench(&args),
        Some("profile") => profile::cmd_profile(&args),
        Some("help") | None => out!("{HELP}"),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    // Supervision ends with the command body: the file writes below
    // produce no heartbeats and must not trip it.
    if let Some(s) = supervisor {
        s.stop();
    }
    let result = result.and_then(|()| match &telemetry {
        Some(t) => t.emit().map_err(CliError::from),
        None => Ok(()),
    });
    if let Err(e) = result {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match &e {
            CliError::Usage(msg) => {
                eprintln!("error: {msg}");
                eprintln!("run `hpcpower help` for usage");
            }
            CliError::Io(msg) => eprintln!("error: {msg}"),
            CliError::BenchRegress(msg) | CliError::Interrupted(msg) => eprintln!("{msg}"),
        }
        std::process::exit(e.exit_code());
    }
}
