//! # hpcpower-ml
//!
//! A small, self-contained machine-learning substrate implementing the
//! three model families the paper evaluates for apriori job-power
//! prediction (Sec. 5, Figs. 14-15), plus the evaluation protocol:
//!
//! * [`tree`] — Binary Decision Tree (CART regression tree) — the paper's
//!   best performer: hierarchical splits on user, node count, walltime.
//! * [`knn`] — K-Nearest-Neighbour regression with a categorical-match
//!   distance for the user feature.
//! * [`flda`] — Fisher's Linear Discriminant Analysis over binned power
//!   classes (predicting the class-mean power).
//! * [`eval`] — the paper's protocol: 10 random 80/20 splits with every
//!   validation user guaranteed to appear in training; absolute
//!   percentage error CDFs and per-user mean errors.
//!
//! All models implement [`Regressor`] over the paper's three features —
//! `(user id, number of nodes, requested walltime)` — encoded as a
//! [`data::FeatureMatrix`]. Nothing here is power-specific; the substrate
//! is a generic tabular-regression toolkit kept deliberately small
//! ("light-weight and easy to maintain/update", as the paper argues).
//!
//! ```
//! use hpcpower_ml::{DecisionTree, Regressor, TreeConfig};
//!
//! // A user who always runs the same two configurations.
//! let mut data = hpcpower_ml::Dataset::default();
//! for _ in 0..20 {
//!     data.push(7, 4.0, 360.0, 150.0); // production runs: 150 W/node
//!     data.push(7, 1.0, 60.0, 60.0);   // prep runs: 60 W/node
//! }
//! let tree = DecisionTree::fit(&data, TreeConfig::default()).unwrap();
//! assert!((tree.predict(7, 4.0, 360.0) - 150.0).abs() < 1.0);
//! assert!((tree.predict(7, 1.0, 60.0) - 60.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod data;
pub mod eval;
pub mod flda;
pub mod knn;
pub mod linalg;
pub mod metrics;
pub mod tree;

pub use data::{Dataset, FeatureMatrix};
pub use eval::{evaluate, EvalConfig, EvalReport};
pub use flda::{Flda, FldaConfig};
pub use knn::{Knn, KnnConfig};
pub use tree::{DecisionTree, TreeConfig};

/// A trained regression model over the three job features.
///
/// `predict` must be a pure function of `(self, user, nodes, walltime)`:
/// asked the same triple, a model returns the same bits whatever it was
/// asked before. [`evaluate`] relies on this to ask each distinct
/// validation triple of a split once.
pub trait Regressor: Send + Sync {
    /// Predicts the target for one sample: `(user, nodes, walltime)`.
    fn predict(&self, user: u32, nodes: f64, walltime: f64) -> f64;

    /// Predicts for every row of a feature matrix.
    fn predict_all(&self, features: &FeatureMatrix) -> Vec<f64> {
        (0..features.len())
            .map(|i| {
                let (u, n, w) = features.row(i);
                self.predict(u, n, w)
            })
            .collect()
    }
}

/// Errors from model training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Training requires at least `required` samples.
    NotEnoughData {
        /// Minimum sample count.
        required: usize,
        /// Actual sample count.
        actual: usize,
    },
    /// Invalid hyper-parameter.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::NotEnoughData { required, actual } => {
                write!(f, "not enough training data: need {required}, got {actual}")
            }
            MlError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, MlError>;
