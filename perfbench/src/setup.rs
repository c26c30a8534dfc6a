//! Set-up: the inputs of a run's ops and the reference outputs they are
//! checked against, computed in-process from the library.
//!
//! Trace `k` of the run lands in `DIR/trace-k/`:
//!
//! * `jobs.csv`, `system.csv`, `dataset.json` and their manifest
//!   sidecars, published through the same encoders and
//!   `atomic_write_retry` as `hpcpower simulate`. This is the reference
//!   of `simulate-publish` and the input of the other two workloads;
//! * `report.txt` (`analyze-report`): `report::render_full` at one
//!   thread with the 5-split configuration of `hpcpower analyze`;
//! * `queries.tsv` (`predict-query`): one line per query with the
//!   user, nodes, walltime in hours, and the watts that a
//!   `DecisionTree` fitted as `hpcpower predict` fits it predicts,
//!   formatted as the CLI prints them.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use hpcpower::prediction::build_ml_dataset;
use hpcpower::report;
use hpcpower_ml::{DecisionTree, Regressor, TreeConfig};
use hpcpower_obs::RetryPolicy;
use hpcpower_sim::{with_threads, ClusterSim};
use hpcpower_trace::recover::{atomic_write_retry, RealFs};
use hpcpower_trace::{csv, json, validate, TraceDataset};

use crate::{prediction_config, queries, sim_config, trace_seeds, JsonObject, QUERIES_PER_TRACE};

/// The three artifacts `hpcpower simulate` publishes (each with a
/// `.manifest.json` sidecar).
pub const ARTIFACTS: [&str; 3] = ["jobs.csv", "system.csv", "dataset.json"];

/// `jobs.csv` and `system.csv`, encoded as `hpcpower simulate` encodes
/// them.
pub fn encode_csv(dataset: &TraceDataset) -> Result<[Vec<u8>; 2], String> {
    let mut jobs_csv = Vec::new();
    csv::write_jobs(&mut jobs_csv, &dataset.jobs, &dataset.summaries).map_err(|e| e.to_string())?;
    let mut system_csv = Vec::new();
    csv::write_system(&mut system_csv, &dataset.system_series).map_err(|e| e.to_string())?;
    Ok([jobs_csv, system_csv])
}

/// `dataset.json`, encoded as `hpcpower simulate` encodes it.
pub fn encode_json(dataset: &TraceDataset) -> Result<Vec<u8>, String> {
    let mut dataset_json = Vec::new();
    json::write_dataset(&mut dataset_json, dataset).map_err(|e| e.to_string())?;
    Ok(dataset_json)
}

/// Publishes the [`ARTIFACTS`] into `dir` the way `hpcpower simulate`
/// does: atomically, with a manifest sidecar each, in the same order.
pub fn publish_all(dir: &Path, artifacts: [&[u8]; 3]) -> Result<(), String> {
    for (name, bytes) in ARTIFACTS.iter().zip(artifacts) {
        let path = dir.join(name);
        atomic_write_retry(&RealFs, &path, bytes, &RetryPolicy::default())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Builds trace `seed` and its references in `dir`.
fn set_up_trace(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dataset = ClusterSim::new(sim_config(seed)).run().dataset;
    validate::validate(&dataset).map_err(|e| format!("trace {seed} is invalid: {e}"))?;
    let [jobs_csv, system_csv] = encode_csv(&dataset)?;
    let dataset_json = encode_json(&dataset)?;
    publish_all(dir, [&jobs_csv, &system_csv, &dataset_json])?;
    match workload {
        "analyze-report" => {
            let cfg = prediction_config();
            let text = with_threads(1, || report::render_full(&dataset, &cfg));
            write(&dir.join("report.txt"), text.as_bytes())?;
        }
        "predict-query" => {
            let model = DecisionTree::fit(&build_ml_dataset(&dataset), TreeConfig::default())
                .map_err(|e| format!("trace {seed}: {e}"))?;
            let mut table = String::new();
            for q in queries(&dataset, seed, QUERIES_PER_TRACE) {
                let watts = model.predict(q.user, f64::from(q.nodes), q.walltime_min());
                writeln!(
                    table,
                    "{}\t{}\t{}\t{watts:.1}",
                    q.user, q.nodes, q.walltime_h
                )
                .expect("writing to a String cannot fail");
            }
            write(&dir.join("queries.tsv"), table.as_bytes())?;
        }
        _ => {}
    }
    Ok(())
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Sets up `traces` traces and reports their seeds and the wall seconds
/// each set-up took.
pub fn run(workload: &str, seed: u64, traces: usize, dir: &Path) -> Result<String, String> {
    if traces == 0 {
        return Err("--traces must be at least 1".into());
    }
    let seeds = trace_seeds(seed, traces);
    let mut secs = Vec::with_capacity(traces);
    for (k, &trace_seed) in seeds.iter().enumerate() {
        let started = Instant::now();
        set_up_trace(workload, trace_seed, &dir.join(format!("trace-{k}")))?;
        secs.push(started.elapsed().as_secs_f64());
    }
    let mut out = JsonObject::default();
    out.strings(
        "seeds",
        &seeds.iter().map(u64::to_string).collect::<Vec<_>>(),
    );
    out.numbers("setup_s", &secs);
    Ok(out.render())
}
