//! # hpcpower-sim
//!
//! A production-HPC-cluster simulator that substitutes for the two
//! proprietary systems studied in Patel et al. (2020): it generates the
//! same artifact the paper open-sourced — batch accounting records joined
//! with per-minute node-level RAPL power telemetry — with distributions
//! calibrated, figure by figure, to the paper's published statistics.
//!
//! Pipeline (see [`cluster::ClusterSim`]):
//!
//! 1. [`users`] — a Zipf-skewed user population; each user owns a few
//!    recurring *job templates* (application, node count, requested
//!    walltime), the mechanism behind the paper's predictability result.
//! 2. [`workload`] — a non-homogeneous Poisson arrival process with
//!    diurnal/weekly modulation, sized to a target offered load.
//! 3. [`scheduler`] — event-driven FCFS + EASY backfill over exclusive
//!    nodes, producing starts/ends/node allocations.
//! 4. [`power`] — a stateless per-(job, node, minute) power process:
//!    persistent node manufacturing factors × per-job workload imbalance
//!    × spike/dip phases × sampling noise, clamped to [idle, TDP].
//! 5. [`monitor`] — streaming aggregation into per-job power summaries, a
//!    per-minute system series, and full series for an instrumented
//!    subset — in parallel with rayon, without ever materializing the
//!    ~10⁸-sample telemetry.
//!
//! [`config::SimConfig::emmy`] / [`config::SimConfig::meggie`] are the
//! full-scale calibrated presets; `*_small` variants run in seconds.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod apps;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod faults;
pub mod monitor;
pub mod pool;
pub mod power;
pub mod scheduler;
pub mod users;
pub mod workload;

pub use apps::{standard_catalog, AppClass, Arch};
pub use checkpoint::{
    resume, run_checkpointed, ChaosPlan, CheckpointError, CheckpointOptions, DEFAULT_CHUNK_JOBS,
};
pub use cluster::{simulate, ClusterSim, SimOutput};
pub use config::SimConfig;
pub use faults::{inject_faults, FaultConfig, FaultSummary};
pub use monitor::MonitorOutput;
pub use pool::with_threads;
pub use power::{JobPowerParams, PowerModel};
pub use scheduler::{schedule, ScheduleOutcome, ScheduledJob};
pub use users::{generate_population, UserModel};
pub use workload::{generate_arrivals, JobRequest};
