//! In-process half of the `hpcpower` journey benchmark (see README.md).
//!
//! `run.py` times fresh `hpcpower` processes. This binary does the work
//! that must stay out of the timing harness's own process, whose peak
//! resident set a spawned op would otherwise inherit in its own
//! `ru_maxrss`:
//!
//! ```text
//! perfbench setup --workload W --seed S --traces N --dir DIR
//! perfbench trace --workload W --seed S --dir DIR --published FILE [--report FILE]
//! ```
//!
//! * `setup` simulates the run's traces through the library, publishes
//!   each as `hpcpower simulate` does, and writes the reference outputs
//!   every op is checked against ([`setup`]).
//! * `trace` re-executes the three journeys in-process through the
//!   library's public functions, times each layer, and counts the
//!   allocations of each layer in separate passes ([`traced`]).
//!
//! Both print one JSON object on stdout.

mod setup;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;

use hpcpower::prediction::PredictionConfig;
use hpcpower_sim::SimConfig;
use hpcpower_stats::rng::{mix_words, SplitMix64};
use hpcpower_trace::TraceDataset;

// The CLI installs this wrapper too; its gate stays closed except in the
// traced run's allocation-counting passes.
#[global_allocator]
static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 3] = ["simulate-publish", "analyze-report", "predict-query"];

/// Queries drawn per trace for `predict-query`.
pub const QUERIES_PER_TRACE: usize = 8;

/// Stream tag of the query generator ("QUERY").
const QUERY_STREAM: u64 = 0x51_5545_5259;

/// The reference trace shape: `--system emmy --nodes 160 --days 45
/// --users 60` at one thread, as the timed `simulate` op runs it.
pub fn sim_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::emmy(seed).scaled_down(160, 45 * 1440, 60);
    cfg.threads = 1;
    cfg
}

/// The prediction configuration `hpcpower analyze` builds by default
/// (5 splits).
pub fn prediction_config() -> PredictionConfig {
    PredictionConfig {
        n_splits: 5,
        ..Default::default()
    }
}

/// Seeds of the `n` traces of a run: the run's own seed first, so the
/// default seed 3 includes the reference trace, then seeds derived from
/// it.
pub fn trace_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|k| if k == 0 { seed } else { mix_words(&[seed, k]) })
        .collect()
}

/// One `hpcpower predict` question, with its arguments as the op passes
/// them on the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub user: u32,
    pub nodes: u32,
    pub walltime_h: String,
}

impl Query {
    /// The walltime in minutes, computed from the command-line text as
    /// `hpcpower predict` computes it.
    pub fn walltime_min(&self) -> f64 {
        let hours: f64 = self.walltime_h.parse().expect("formatted from an f64");
        hours * 60.0
    }
}

/// `n` queries drawn from the trace: each takes the user, nodes and
/// requested walltime of one randomly chosen job, so every queried user
/// has jobs in the trace.
pub fn queries(dataset: &TraceDataset, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed).fork(QUERY_STREAM);
    (0..n)
        .map(|_| {
            let job = &dataset.jobs[rng.next_bounded(dataset.jobs.len() as u64) as usize];
            Query {
                user: job.user.0,
                nodes: job.nodes,
                walltime_h: (job.walltime_req_min as f64 / 60.0).to_string(),
            }
        })
        .collect()
}

/// Command-line flags as `--name value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            if map.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Self(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.required(name)?;
        raw.parse()
            .map_err(|_| format!("--{name} {raw:?} is not a valid value"))
    }

    fn workload(&self) -> Result<&str, String> {
        let w = self.required("workload")?;
        WORKLOADS
            .contains(&w)
            .then_some(w)
            .ok_or_else(|| format!("unknown workload {w:?}"))
    }
}

/// A JSON object built field by field; numbers print with every digit.
#[derive(Default)]
pub struct JsonObject(Vec<String>);

impl JsonObject {
    pub fn number(&mut self, key: &str, value: f64) {
        assert!(value.is_finite(), "{key} is not finite: {value}");
        self.0.push(format!("\"{key}\": {value}"));
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push(format!("\"{key}\": {json}"));
    }

    pub fn numbers(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(f64::to_string).collect();
        self.raw(key, format!("[{}]", items.join(", ")));
    }

    pub fn strings(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|s| format!("{s:?}")).collect();
        self.raw(key, format!("[{}]", items.join(", ")));
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (mode, rest) = args.split_first().ok_or("missing mode (setup|trace)")?;
    let flags = Flags::parse(rest)?;
    let workload = flags.workload()?;
    let seed: u64 = flags.parsed("seed")?;
    let dir = PathBuf::from(flags.required("dir")?);
    match mode.as_str() {
        "setup" => setup::run(workload, seed, flags.parsed("traces")?, &dir),
        "trace" => traced::run(
            workload,
            seed,
            &dir,
            &PathBuf::from(flags.required("published")?),
            flags.get("report").map(PathBuf::from).as_deref(),
        ),
        other => Err(format!("unknown mode {other:?} (setup|trace)")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
