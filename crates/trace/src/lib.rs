//! # hpcpower-trace
//!
//! Data model and storage layer for HPC power-consumption traces,
//! mirroring the dataset open-sourced with Patel et al. (2020): batch
//! scheduler **accounting records** joined with node-level **RAPL power
//! telemetry** sampled once per minute.
//!
//! The crate defines:
//!
//! * typed identifiers ([`ids`]) for jobs, users, nodes, and applications;
//! * the per-system hardware description ([`system::SystemSpec`]) with the
//!   paper's Table 1 presets for the *Emmy* and *Meggie* clusters;
//! * the per-job accounting record ([`job::JobRecord`]) and the power
//!   summary derived from telemetry ([`job::JobPowerSummary`]);
//! * per-node time series for instrumented jobs ([`series::JobSeries`]);
//! * the dataset container ([`dataset::TraceDataset`]) with query helpers;
//! * CSV and JSON import/export ([`csv`], [`json`]) in a Zenodo-like
//!   layout;
//! * schema validation ([`validate`]).
//!
//! Time is measured in **minutes** since the trace epoch, matching the
//! paper's one-minute sampling granularity; power is in **watts** and
//! refers to the RAPL PKG+DRAM domains of a full node.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod csv;
pub mod dataset;
pub mod fastfloat;
pub mod ids;
pub mod index;
pub mod ingest;
pub mod job;
pub mod json;
pub mod recover;
pub mod repair;
pub mod series;
pub mod system;
pub mod validate;

pub use dataset::TraceDataset;
pub use ids::{AppId, Interner, JobId, NodeId, UserId};
pub use index::{AppRollup, DatasetIndex, UserRollup};
pub use ingest::{read_jobs_str, read_system_str};
pub use job::{JobPowerSummary, JobRecord};
pub use recover::{atomic_write, ArtifactState, ChaosFs, FaultKind, Fs, RealFs};
pub use repair::{repair, DataQualityReport, RepairConfig, RepairPolicy};
pub use series::JobSeries;
pub use system::SystemSpec;

/// Errors produced by trace I/O, ingestion, and validation.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record failed to parse: line number, optional column, message.
    Parse {
        /// 1-based line number within the file.
        line: usize,
        /// 1-based field (column) index within the line, when known.
        column: Option<usize>,
        /// Human-readable description.
        message: String,
    },
    /// A dataset invariant was violated.
    Invalid(String),
    /// Multiple dataset invariants were violated (bounded list; see
    /// [`validate::MAX_VIOLATIONS`]).
    Violations(Vec<String>),
    /// Lenient ingestion quarantined more rows than the error budget
    /// allows.
    ErrorBudgetExceeded {
        /// Rows quarantined before giving up.
        quarantined: usize,
        /// The configured budget.
        budget: usize,
        /// Line number of the first quarantined row.
        first_line: usize,
    },
}

impl TraceError {
    /// Constructs a parse error without column context.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        TraceError::Parse {
            line,
            column: None,
            message: message.into(),
        }
    }

    /// Constructs a parse error pinned to a 1-based field column.
    pub fn parse_at(line: usize, column: usize, message: impl Into<String>) -> Self {
        TraceError::Parse {
            line,
            column: Some(column),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::Parse {
                line,
                column: Some(col),
                message,
            } => write!(f, "parse error at line {line}, field {col}: {message}"),
            TraceError::Parse {
                line,
                column: None,
                message,
            } => write!(f, "parse error at line {line}: {message}"),
            TraceError::Invalid(msg) => write!(f, "invalid dataset: {msg}"),
            TraceError::Violations(v) => {
                write!(f, "invalid dataset: {} violation(s)", v.len())?;
                for msg in v.iter().take(5) {
                    write!(f, "; {msg}")?;
                }
                if v.len() > 5 {
                    write!(f, "; ...")?;
                }
                Ok(())
            }
            TraceError::ErrorBudgetExceeded {
                quarantined,
                budget,
                first_line,
            } => write!(
                f,
                "error budget exceeded: {quarantined} rows quarantined (budget {budget}), \
                 first bad row at line {first_line}"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// An I/O error comes back out as itself, so an encoder can run as a
/// [`recover::Producer`]; any other error becomes `InvalidData`.
impl From<TraceError> for std::io::Error {
    fn from(e: TraceError) -> Self {
        match e {
            TraceError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other),
        }
    }
}

/// Convenience alias for trace results.
pub type Result<T> = std::result::Result<T, TraceError>;
