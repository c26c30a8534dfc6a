//! # hpcpower
//!
//! Characterization and prediction of HPC job power consumption — a Rust
//! implementation of the analyses in:
//!
//! > *"What does Power Consumption Behavior of HPC Jobs Reveal?
//! > Demystifying, Quantifying, and Predicting Power Consumption
//! > Characteristics"* (Patel, Wagenhäuser, Hönig, Zeiser, Eibel,
//! > Tiwari — 2020).
//!
//! The crate consumes a [`hpcpower_trace::TraceDataset`] (from the real
//! released traces or from the calibrated simulator in `hpcpower-sim`)
//! and produces every analysis in the paper, one module per section:
//!
//! | module | paper content |
//! |---|---|
//! | [`system_level`] | RQ1-RQ2: system & power utilization, stranded power (Figs. 1-2) |
//! | [`job_level`] | RQ3-RQ4: per-node power PDFs, app comparison, length/size correlations (Figs. 3-5, Table 2) |
//! | [`temporal`] | RQ5: peak overshoot, time-above-mean (Figs. 6-7) |
//! | [`spatial`] | RQ5: spatial spread, node energy imbalance (Figs. 8-10) |
//! | [`user_level`] | RQ6-RQ8: user concentration, per-user variability, cluster tightness (Figs. 11-13) |
//! | [`prediction`] | RQ9: BDT/KNN/FLDA apriori power prediction (Figs. 14-15) |
//! | [`powercap`] | Discussion: static power-cap what-if |
//! | [`pricing`] | Discussion: the node-hour-pricing cross-subsidy |
//! | [`report`] | renders every figure/table as the rows/series the paper reports |
//!
//! ## Quickstart
//!
//! ```
//! use hpcpower_sim::SimConfig;
//! use hpcpower::prelude::*;
//!
//! // Simulate a small Emmy-like cluster (seconds, deterministic).
//! let dataset = hpcpower_sim::simulate(SimConfig::emmy_small(42));
//!
//! // Fig. 3: distribution of per-node job power.
//! let pdf = job_level::power_pdf(&dataset, 40).unwrap();
//! assert!(pdf.mean_w > 0.0 && pdf.mean_w < dataset.system.node_tdp_w);
//!
//! // RQ1/RQ2: the stranded-power gap.
//! let sys = system_level::analyze(&dataset);
//! assert!(sys.power.mean < sys.utilization.mean); // power lags utilization
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ascii;
pub mod figures;
pub mod job_level;
pub mod json_report;
pub mod powercap;
pub mod pricing;
pub mod prediction;
pub mod report;
pub mod spatial;
pub mod system_level;
pub mod temporal;
pub mod user_level;

/// Convenient glob-import of the analysis modules and key types.
pub mod prelude {
    pub use crate::figures::{CdfStats, MeanStd};
    pub use crate::{
        job_level, powercap, prediction, pricing, report, spatial, system_level, temporal,
        user_level,
    };
    pub use hpcpower_trace::{JobPowerSummary, JobRecord, TraceDataset};
}

/// Errors produced by the analyses.
#[derive(Debug)]
pub enum AnalysisError {
    /// The dataset lacks the data an analysis needs.
    InsufficientData(String),
    /// Forwarded statistics error.
    Stats(hpcpower_stats::StatsError),
    /// Forwarded ML error.
    Ml(hpcpower_ml::MlError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::InsufficientData(msg) => write!(f, "insufficient data: {msg}"),
            AnalysisError::Stats(e) => write!(f, "statistics error: {e}"),
            AnalysisError::Ml(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<hpcpower_stats::StatsError> for AnalysisError {
    fn from(e: hpcpower_stats::StatsError) -> Self {
        AnalysisError::Stats(e)
    }
}

impl From<hpcpower_ml::MlError> for AnalysisError {
    fn from(e: hpcpower_ml::MlError) -> Self {
        AnalysisError::Ml(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, AnalysisError>;
