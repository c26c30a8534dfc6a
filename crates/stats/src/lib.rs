//! # hpcpower-stats
//!
//! Statistics substrate for the HPC power-consumption characterization
//! suite (Patel et al., 2020 reproduction).
//!
//! The paper's analyses are built from a small set of statistical
//! primitives, all of which are implemented here from scratch:
//!
//! * **Descriptive statistics** ([`describe::Summary`]) — numerically
//!   stable (Welford) mean/variance/extrema, coefficient of variation.
//! * **Streaming accumulators** ([`online`]) — one-pass statistics used by
//!   the cluster monitor to summarize per-minute power samples without
//!   storing them (time-above-threshold, spread trackers, etc.).
//! * **Distribution views** — [`histogram::Histogram`] (the paper's PDF
//!   plots), [`ecdf::Ecdf`] (its CDF plots), and [`quantile`] helpers.
//! * **Correlation** ([`correlation`]) — Pearson and Spearman coefficients
//!   with p-values (Table 2), backed by from-scratch special functions
//!   ([`special`]: log-gamma, regularized incomplete beta, erf).
//! * **Concentration analysis** ([`lorenz`]) — Lorenz curves, Gini
//!   coefficients and top-share statistics for the user-level analysis
//!   (Fig. 11).
//! * **Deterministic randomness** ([`rng`]) — SplitMix64 plus a stateless
//!   counter-based generator that lets the power model re-derive any
//!   `(job, node, minute)` sample on demand, so multi-gigabyte telemetry
//!   never has to be materialized.
//!
//! All floating-point routines operate on `f64` and are deterministic for
//! a given input ordering.
//!
//! ```
//! use hpcpower_stats::{correlation, Ecdf, Lorenz, Summary};
//!
//! let powers = [120.0, 135.0, 98.0, 160.0, 145.0, 110.0];
//! let s = Summary::from_slice(&powers);
//! assert!((s.mean() - 128.0).abs() < 1.0);
//!
//! let runtimes = [60.0, 240.0, 30.0, 480.0, 300.0, 90.0];
//! let rho = correlation::spearman(&runtimes, &powers).unwrap();
//! assert!(rho.r > 0.5); // longer jobs draw more power here
//!
//! let cdf = Ecdf::new(&powers).unwrap();
//! assert_eq!(cdf.eval(134.9), 0.5);
//!
//! let lorenz = Lorenz::new(&powers).unwrap();
//! assert!(lorenz.top_share(0.5) > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod correlation;
pub mod describe;
pub mod ecdf;
pub mod histogram;
pub mod lorenz;
pub mod online;
pub mod quantile;
pub mod rank;
pub mod rng;
pub mod special;

pub use correlation::{pearson, spearman, Correlation};
pub use describe::Summary;
pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use lorenz::Lorenz;
pub use online::StreamingStats;
pub use rng::{CounterRng, SplitMix64};

/// Library-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The operation needs at least `required` samples but got `actual`.
    NotEnoughSamples {
        /// Minimum number of samples required.
        required: usize,
        /// Number of samples supplied.
        actual: usize,
    },
    /// Two paired slices had different lengths.
    LengthMismatch {
        /// Length of the first slice.
        left: usize,
        /// Length of the second slice.
        right: usize,
    },
    /// An input value was invalid (NaN, non-positive bin width, ...).
    InvalidInput(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NotEnoughSamples { required, actual } => {
                write!(f, "not enough samples: need {required}, got {actual}")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired slices differ in length: {left} vs {right}")
            }
            StatsError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
