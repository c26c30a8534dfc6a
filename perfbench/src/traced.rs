//! The traced run: each journey re-executed in-process through the
//! library's public functions, with every call timed from here and
//! `hpcpower-obs` telemetry off.
//!
//! A pass runs the three journeys in order, at one thread, on the run's
//! first trace: `simulate-publish` publishes into `DIR/traced/`, and
//! `analyze-report` and `predict-query` load what it published. Three
//! timing passes give each layer's median time. Two further passes open
//! the gate of the installed `ProfiledAllocator` and count each layer's
//! allocations; the gate never opens while a layer is timed, and the
//! two counts must agree exactly.
//!
//! Two checks tie the layers to the program the ops timed: the traced
//! `simulate-publish` chain must encode the same `dataset.json` bytes as
//! the file the workload's ops published or read (`--published`), and
//! the traced report sections must concatenate to the body of the
//! report the op printed (`--report`), or, for the workloads that print
//! none, of `render_full`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hpcpower::prediction::build_ml_dataset;
use hpcpower::report;
use hpcpower_ml::{evaluate, DecisionTree, EvalConfig, Flda, Knn, Regressor, TreeConfig};
use hpcpower_sim::monitor::{monitor, select_instrumented};
use hpcpower_sim::power::{resolve_job_params, PowerModel};
use hpcpower_sim::{
    generate_arrivals, generate_population, schedule, standard_catalog, with_threads, ScheduledJob,
};
use hpcpower_stats::rng::{mix_words, SplitMix64};
use hpcpower_trace::{json, validate, AppId, JobId, JobRecord, TraceDataset, UserId};

use crate::setup::{encode_csv, encode_json, publish_all};
use crate::{prediction_config, queries, sim_config, JsonObject, Query, WORKLOADS};

/// Timing passes; each layer reports its median over them.
const TIMING_PASSES: usize = 3;

/// Predictions timed back to back for `ml.tree.predict_ns`.
const PREDICT_REPS: u32 = 100_000;

/// One measured call.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    name: &'static str,
    /// Whether the call is a step of the journey, as opposed to a split
    /// of other steps that stays out of the journey's sum.
    in_sum: bool,
    secs: f64,
    allocs: u64,
    bytes: u64,
}

/// Records the layers of one journey in one pass.
#[derive(Default)]
struct Meter(Vec<Layer>);

impl Meter {
    /// Runs `f` as the journey step `name`.
    fn step<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, true, f)
    }

    /// Runs `f` as `name`, a split of other steps.
    fn split<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, false, f)
    }

    fn record<R>(&mut self, name: &'static str, in_sum: bool, f: impl FnOnce() -> R) -> R {
        // The totals only move while the allocation gate is open, which
        // it is in the counting passes alone.
        let (allocs0, bytes0) = hpcpower_obs::alloc::totals();
        let started = Instant::now();
        let result = f();
        let secs = started.elapsed().as_secs_f64();
        let (allocs1, bytes1) = hpcpower_obs::alloc::totals();
        self.0.push(Layer {
            name,
            in_sum,
            secs,
            allocs: allocs1 - allocs0,
            bytes: bytes1 - bytes0,
        });
        result
    }
}

/// Indices of the journeys in [`Pass::journeys`], in [`WORKLOADS`] order.
const SIMULATE: usize = 0;
const ANALYZE: usize = 1;
const PREDICT: usize = 2;

/// What one pass measured and produced.
struct Pass {
    /// The layers of each journey, in [`WORKLOADS`] order.
    journeys: [Vec<Layer>; 3],
    /// Jobs the scheduler placed, in or after the horizon.
    scheduled: usize,
    /// Node-minute samples the monitor generated.
    samples: u64,
    csv_bytes: usize,
    dataset_json: Vec<u8>,
    sections: Vec<String>,
}

/// `simulate-publish`: the steps of `ClusterSim::run`, then validation,
/// encoding and publishing as `hpcpower simulate` does them.
fn simulate_journey(m: &mut Meter, seed: u64, out: &Path) -> Result<SimulateResult, String> {
    let cfg = sim_config(seed);
    let catalog = standard_catalog();
    // The forks of `ClusterSim::prepare`: 1 population, 2 arrivals, 3
    // job keys.
    let mut rng = SplitMix64::new(cfg.seed);
    let mut pop_rng = rng.fork(1);
    let mut arrival_rng = rng.fork(2);
    let job_key_base = rng.fork(3).next_u64();

    let users = m.step("sim.users", || {
        generate_population(&cfg.population, &catalog, cfg.arch, &mut pop_rng)
    });
    let requests = m.step("sim.workload", || {
        generate_arrivals(
            &users,
            &cfg.arrivals,
            cfg.system.nodes,
            cfg.horizon_min,
            &mut arrival_rng,
        )
    });
    let outcome = m.step("sim.scheduler", || schedule(&requests, cfg.system.nodes));
    let scheduled = outcome.jobs.len();
    let mut placed: Vec<ScheduledJob> = outcome
        .jobs
        .into_iter()
        .filter(|j| j.start_min < cfg.horizon_min)
        .collect();
    placed.sort_by_key(|j| (j.start_min, j.request_idx));
    let params: Vec<_> = m.step("sim.power", || {
        placed
            .iter()
            .map(|j| {
                let template =
                    &users[j.request.user as usize].templates[j.request.template as usize];
                let profile = catalog[j.request.app as usize].profile(cfg.arch);
                let key = mix_words(&[job_key_base, j.request_idx as u64]);
                resolve_job_params(profile, template, cfg.system.node_tdp_w, key)
            })
            .collect()
    });
    let monitored = m.step("sim.monitor", || {
        let eligible: Vec<bool> = catalog.iter().map(|a| a.major).collect();
        let flags = select_instrumented(&placed, &eligible, &cfg.instrument);
        let model = PowerModel::new(cfg.power, cfg.seed);
        monitor(&model, &placed, &params, cfg.horizon_min, &flags)
    });
    let samples = placed
        .iter()
        .map(|j| u64::from(j.request.nodes) * (j.end_min - j.start_min))
        .sum();

    // The dataset as `ClusterSim::finish` assembles it.
    let dataset = TraceDataset {
        system: cfg.system.clone(),
        jobs: placed
            .iter()
            .enumerate()
            .map(|(i, j)| JobRecord {
                id: JobId::from_index(i),
                user: UserId(j.request.user),
                app: AppId(j.request.app),
                submit_min: j.request.submit_min,
                start_min: j.start_min,
                end_min: j.end_min,
                nodes: j.request.nodes,
                walltime_req_min: j.request.walltime_req_min,
            })
            .collect(),
        summaries: monitored.summaries,
        system_series: monitored.system_series,
        instrumented: monitored.instrumented,
        app_names: catalog.iter().map(|a| a.name.clone()).collect(),
        user_count: cfg.population.n_users as u32,
        index: Default::default(),
    };
    m.step("trace.validate", || validate::validate(&dataset))
        .map_err(|e| format!("traced trace is invalid: {e}"))?;
    let [jobs_csv, system_csv] = m.step("trace.csv.encode", || encode_csv(&dataset))?;
    let dataset_json = m.step("trace.json.encode", || encode_json(&dataset))?;
    m.step("trace.recover.publish", || {
        publish_all(out, [&jobs_csv, &system_csv, &dataset_json])
    })?;
    Ok(SimulateResult {
        scheduled,
        samples,
        csv_bytes: jobs_csv.len() + system_csv.len(),
        query: queries(&dataset, seed, 1).remove(0),
        dataset_json,
    })
}

struct SimulateResult {
    scheduled: usize,
    samples: u64,
    csv_bytes: usize,
    query: Query,
    dataset_json: Vec<u8>,
}

/// `load` in the CLI: decode, then validate.
fn load(m: &mut Meter, path: &Path) -> Result<TraceDataset, String> {
    let dataset = m
        .step("trace.json.decode", || json::load_dataset(path))
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    m.step("trace.validate", || validate::validate(&dataset))
        .map_err(|e| format!("{} is invalid: {e}", path.display()))?;
    Ok(dataset)
}

/// `analyze-report`: load, warm the index, render each section of
/// `render_full` in its order; then the model evaluations inside the
/// prediction section, as a split.
fn analyze_journey(m: &mut Meter, path: &Path) -> Result<Vec<String>, String> {
    let d = load(m, path)?;
    m.step("trace.index", || {
        black_box(d.sorted_per_node_powers());
        black_box(d.users_with_jobs());
        black_box(d.apps_with_jobs());
        black_box(d.user_rollups());
        black_box(d.app_rollups());
    });
    let cfg = prediction_config();
    let sections = vec![
        m.step("core.report.system_level", || {
            report::render_system_level(&d)
        }),
        m.step("core.report.job_level", || report::render_job_level(&d)),
        m.step("core.report.temporal", || report::render_temporal(&d)),
        m.step("core.report.spatial", || report::render_spatial(&d)),
        m.step("core.report.user_level", || report::render_user_level(&d)),
        m.step("core.report.prediction", || {
            report::render_prediction(&d, &cfg)
        }),
        m.step("core.report.powercap", || report::render_powercap(&d, &cfg)),
        m.step("core.report.pricing", || report::render_pricing(&d)),
    ];
    let data = build_ml_dataset(&d);
    let eval_cfg = EvalConfig {
        n_splits: cfg.n_splits,
        validation_fraction: cfg.validation_fraction,
        seed: cfg.seed,
    };
    black_box(m.split("ml.eval.bdt", || {
        evaluate(&data, &eval_cfg, |t| DecisionTree::fit(t, cfg.tree))
    }));
    black_box(m.split("ml.eval.knn", || {
        evaluate(&data, &eval_cfg, |t| Knn::fit(t, cfg.knn))
    }));
    black_box(m.split("ml.eval.flda", || {
        evaluate(&data, &eval_cfg, |t| Flda::fit(t, cfg.flda))
    }));
    Ok(sections)
}

/// `predict-query`: load, build the features, fit the tree, predict one
/// query; then the same prediction repeated, as a split.
fn predict_journey(m: &mut Meter, path: &Path, q: &Query) -> Result<(), String> {
    let d = load(m, path)?;
    let data = m.step("core.prediction.build_ml_dataset", || build_ml_dataset(&d));
    let model = m
        .step("ml.tree.fit", || {
            DecisionTree::fit(&data, TreeConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let (nodes, walltime) = (f64::from(q.nodes), q.walltime_min());
    black_box(m.step("ml.tree.predict", || model.predict(q.user, nodes, walltime)));
    m.split("ml.tree.predict_batch", || {
        for _ in 0..PREDICT_REPS {
            black_box(model.predict(black_box(q.user), black_box(nodes), black_box(walltime)));
        }
    });
    Ok(())
}

fn one_pass(seed: u64, work: &Path) -> Result<Pass, String> {
    with_threads(1, || {
        let (mut simulate, mut analyze, mut predict) =
            (Meter::default(), Meter::default(), Meter::default());
        let sim = simulate_journey(&mut simulate, seed, work)?;
        let published = work.join("dataset.json");
        let sections = analyze_journey(&mut analyze, &published)?;
        predict_journey(&mut predict, &published, &sim.query)?;
        Ok(Pass {
            journeys: [simulate.0, analyze.0, predict.0],
            scheduled: sim.scheduled,
            samples: sim.samples,
            csv_bytes: sim.csv_bytes,
            dataset_json: sim.dataset_json,
            sections,
        })
    })
}

/// The layer `name` of `journey` in every pass.
fn across<'a>(passes: &'a [Pass], journey: usize, name: &str) -> Result<Vec<&'a Layer>, String> {
    passes
        .iter()
        .map(|p| {
            p.journeys[journey]
                .iter()
                .find(|l| l.name == name)
                .ok_or_else(|| format!("no layer {name}"))
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median seconds of a layer over the timing passes.
fn secs(passes: &[Pass], journey: usize, name: &str) -> Result<f64, String> {
    Ok(median(
        across(passes, journey, name)?
            .iter()
            .map(|l| l.secs)
            .collect(),
    ))
}

/// Sum of a journey's step medians.
fn journey_secs(passes: &[Pass], journey: usize) -> Result<f64, String> {
    passes[0].journeys[journey]
        .iter()
        .filter(|l| l.in_sum)
        .map(|l| secs(passes, journey, l.name))
        .sum()
}

/// Checks that `text`, a full report, is one header line, a blank line
/// and then exactly `sections`.
fn check_report(text: &str, sections: &[String], source: &str) -> Result<(), String> {
    let body: String = sections.concat();
    let header = text
        .strip_suffix(&body)
        .ok_or_else(|| format!("the traced sections do not end {source}"))?;
    let single_line = header.starts_with("# ")
        && header.ends_with("\n\n")
        && !header[..header.len() - 2].contains('\n');
    if single_line {
        Ok(())
    } else {
        Err(format!(
            "{source} has more than a header line before the traced sections"
        ))
    }
}

pub fn run(
    workload: &str,
    seed: u64,
    dir: &Path,
    published: &Path,
    op_report: Option<&Path>,
) -> Result<String, String> {
    let work = dir.join("traced");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let timed: Vec<Pass> = (0..TIMING_PASSES)
        .map(|_| one_pass(seed, &work))
        .collect::<Result<_, _>>()?;
    hpcpower_obs::enable_alloc_profiling();
    let counted: Result<Vec<Pass>, String> = (0..2).map(|_| one_pass(seed, &work)).collect();
    hpcpower_obs::disable_alloc_profiling();
    let counted = counted?;

    let mut failures = Vec::new();
    for (journey, name) in WORKLOADS.iter().enumerate() {
        let counts = |p: &Pass| -> Vec<(&str, u64, u64)> {
            p.journeys[journey]
                .iter()
                .map(|l| (l.name, l.allocs, l.bytes))
                .collect()
        };
        if counts(&counted[0]) != counts(&counted[1]) {
            failures.push(format!(
                "{name}: allocation counts differ between two passes"
            ));
        }
    }
    let expected_json = std::fs::read(published)
        .map_err(|e| format!("cannot read {}: {e}", published.display()))?;
    if timed
        .iter()
        .chain(&counted)
        .any(|p| p.dataset_json != expected_json)
    {
        failures.push(format!(
            "the traced simulate chain does not encode {}",
            published.display()
        ));
    }
    let report_check = match op_report {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            check_report(&text, &timed[0].sections, &path.display().to_string())
        }
        None => {
            let d = json::load_dataset(published).map_err(|e| e.to_string())?;
            let text = with_threads(1, || report::render_full(&d, &prediction_config()));
            check_report(&text, &timed[0].sections, "render_full")
        }
    };
    failures.extend(report_check.err());

    // Layers that more than one journey runs report the workload's own
    // journey, or `analyze-report`'s when the workload's lacks them.
    let own = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .expect("the workload was checked against WORKLOADS");
    let decoding = if own == PREDICT { PREDICT } else { ANALYZE };
    let count = |journey: usize, name: &str| -> Result<&Layer, String> {
        Ok(across(&counted, journey, name)?[0])
    };

    let mut metrics = JsonObject::default();
    let first = &timed[0];
    for (metric, layer) in [
        ("sim.users.busy_s", "sim.users"),
        ("sim.workload.busy_s", "sim.workload"),
        ("sim.scheduler.busy_s", "sim.scheduler"),
        ("sim.power.busy_s", "sim.power"),
        ("sim.monitor.busy_s", "sim.monitor"),
        ("trace.csv.encode_s", "trace.csv.encode"),
        ("trace.json.encode_s", "trace.json.encode"),
        ("trace.recover.publish_s", "trace.recover.publish"),
    ] {
        metrics.number(metric, secs(&timed, SIMULATE, layer)?);
    }
    let scheduler_s = secs(&timed, SIMULATE, "sim.scheduler")?;
    metrics.number(
        "sim.scheduler.jobs_per_s",
        first.scheduled as f64 / scheduler_s,
    );
    let monitor_s = secs(&timed, SIMULATE, "sim.monitor")?;
    metrics.number("sim.monitor.samples", first.samples as f64);
    metrics.number(
        "sim.monitor.ns_per_sample",
        monitor_s * 1e9 / first.samples as f64,
    );
    metrics.number(
        "sim.monitor.alloc_bytes",
        count(SIMULATE, "sim.monitor")?.bytes as f64,
    );
    metrics.number("trace.csv.bytes", first.csv_bytes as f64);
    let json_bytes = first.dataset_json.len() as f64;
    metrics.number("trace.json.bytes", json_bytes);
    metrics.number(
        "trace.json.encode_mb_per_s",
        json_bytes / 1e6 / secs(&timed, SIMULATE, "trace.json.encode")?,
    );
    metrics.number(
        "trace.json.encode_alloc_bytes",
        count(SIMULATE, "trace.json.encode")?.bytes as f64,
    );
    metrics.number(
        "trace.validate.busy_s",
        secs(&timed, own, "trace.validate")?,
    );
    let decode_s = secs(&timed, decoding, "trace.json.decode")?;
    metrics.number("trace.json.decode_s", decode_s);
    metrics.number("trace.json.decode_mb_per_s", json_bytes / 1e6 / decode_s);
    let decode = count(decoding, "trace.json.decode")?;
    metrics.number("trace.json.decode_alloc_count", decode.allocs as f64);
    metrics.number("trace.json.decode_alloc_bytes", decode.bytes as f64);
    metrics.number("trace.index.busy_s", secs(&timed, ANALYZE, "trace.index")?);
    for section in [
        "system_level",
        "job_level",
        "temporal",
        "spatial",
        "user_level",
        "prediction",
        "powercap",
        "pricing",
    ] {
        let layer = format!("core.report.{section}");
        let value = secs(&timed, ANALYZE, &layer)?;
        metrics.number(&format!("{layer}.busy_s"), value);
    }
    for model in ["bdt", "knn", "flda"] {
        let layer = format!("ml.eval.{model}");
        let value = secs(&timed, ANALYZE, &layer)?;
        metrics.number(&format!("{layer}_s"), value);
    }
    metrics.number(
        "core.prediction.build_ml_dataset_s",
        secs(&timed, PREDICT, "core.prediction.build_ml_dataset")?,
    );
    metrics.number("ml.tree.fit_s", secs(&timed, PREDICT, "ml.tree.fit")?);
    metrics.number(
        "ml.tree.fit_alloc_bytes",
        count(PREDICT, "ml.tree.fit")?.bytes as f64,
    );
    metrics.number(
        "ml.tree.predict_ns",
        secs(&timed, PREDICT, "ml.tree.predict_batch")? * 1e9 / f64::from(PREDICT_REPS),
    );

    let mut journey_s = JsonObject::default();
    for (journey, name) in WORKLOADS.iter().enumerate() {
        journey_s.number(name, journey_secs(&timed, journey)?);
    }
    let mut out = JsonObject::default();
    out.raw("metrics", metrics.render());
    out.raw("journey_s", journey_s.render());
    out.strings("failures", &failures);
    Ok(out.render())
}
