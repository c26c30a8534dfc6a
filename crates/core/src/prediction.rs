//! Apriori power prediction (Sec. 5, RQ9, Figs. 14-15).
//!
//! *RQ9: Can user, number of nodes, and wall time be used to predict the
//! power consumption of a job?*
//!
//! The three features are exactly what is available *before* execution;
//! the target is per-node power. The paper evaluates a Binary Decision
//! Tree, KNN, and FLDA under ten random 80/20 splits (validation users
//! always present in training). BDT wins: 90% of predictions under 10%
//! absolute error, 75% under 5%, and 90% of users under 5% mean error.

use hpcpower_ml::data::Dataset as MlDataset;
use hpcpower_ml::{
    evaluate, DecisionTree, EvalConfig, EvalReport, Flda, FldaConfig, Knn, KnnConfig, TreeConfig,
};
use hpcpower_trace::TraceDataset;
use serde::{Deserialize, Serialize};

use crate::figures::CdfFigure;
use crate::{AnalysisError, Result};

/// Builds the ML dataset from a trace: features `(user, nodes,
/// walltime_req)`, target per-node power.
pub fn build_ml_dataset(dataset: &TraceDataset) -> MlDataset {
    let mut d = MlDataset::default();
    for (job, s) in dataset.iter_jobs() {
        d.push(
            job.user.0,
            job.nodes as f64,
            job.walltime_req_min as f64,
            s.per_node_power_w,
        );
    }
    d
}

/// Headline numbers for one model (one CDF in Fig. 14).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelResult {
    /// Model name ("BDT", "KNN", "FLDA").
    pub model: String,
    /// CDF of absolute percentage errors (pooled over splits).
    pub error_cdf: CdfFigure,
    /// Fraction of predictions with error < 5%.
    pub frac_below_5pct: f64,
    /// Fraction of predictions with error < 10%.
    pub frac_below_10pct: f64,
    /// Mean absolute percentage error.
    pub mape: f64,
}

impl ModelResult {
    fn from_report(model: &str, report: &EvalReport) -> Option<Self> {
        Some(Self {
            model: model.to_string(),
            error_cdf: CdfFigure::from_values(&report.errors, 60)?,
            frac_below_5pct: report.fraction_below(0.05),
            frac_below_10pct: report.fraction_below(0.10),
            mape: report.mape(),
        })
    }
}

/// Fig. 14 + Fig. 15 results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionAnalysis {
    /// One entry per model, in `[BDT, KNN, FLDA]` order.
    pub models: Vec<ModelResult>,
    /// Fig. 15: CDF of per-user mean absolute error under the best model
    /// (BDT).
    pub bdt_user_error_cdf: CdfFigure,
    /// Fraction of users with mean error < 5% under BDT (paper: 90%).
    pub bdt_user_frac_below_5pct: f64,
    /// Jobs used.
    pub jobs: usize,
}

/// Hyper-parameters for the three models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionConfig {
    /// BDT settings.
    pub tree: TreeConfig,
    /// KNN settings.
    pub knn: KnnConfig,
    /// FLDA settings.
    pub flda: FldaConfig,
    /// Number of random splits (paper: 10).
    pub n_splits: usize,
    /// Validation fraction (paper: 0.2).
    pub validation_fraction: f64,
    /// Seed for the split protocol.
    pub seed: u64,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        Self {
            tree: TreeConfig::default(),
            // The paper's plain KNN treats the user id numerically —
            // the behaviour behind its Fig. 14 gap to the BDT.
            knn: KnnConfig::paper(),
            flda: FldaConfig::default(),
            n_splits: 10,
            validation_fraction: 0.2,
            seed: 0xBD7,
        }
    }
}

/// Runs the full Fig. 14/15 evaluation on a trace.
pub fn analyze(dataset: &TraceDataset, cfg: &PredictionConfig) -> Result<PredictionAnalysis> {
    let data = build_ml_dataset(dataset);
    if data.len() < 50 {
        return Err(AnalysisError::InsufficientData(format!(
            "{} jobs is too few for the split protocol",
            data.len()
        )));
    }
    let eval_cfg = EvalConfig {
        n_splits: cfg.n_splits,
        validation_fraction: cfg.validation_fraction,
        seed: cfg.seed,
    };
    let bdt = hpcpower_obs::time("ml.eval.BDT", || {
        evaluate(&data, &eval_cfg, |t| DecisionTree::fit(t, cfg.tree))
    });
    let knn = hpcpower_obs::time("ml.eval.KNN", || {
        evaluate(&data, &eval_cfg, |t| Knn::fit(t, cfg.knn))
    });
    let flda = hpcpower_obs::time("ml.eval.FLDA", || {
        evaluate(&data, &eval_cfg, |t| Flda::fit(t, cfg.flda))
    });

    let mut models = Vec::new();
    for (name, report) in [("BDT", &bdt), ("KNN", &knn), ("FLDA", &flda)] {
        if let Some(m) = ModelResult::from_report(name, report) {
            models.push(m);
        }
    }
    if models.is_empty() {
        return Err(AnalysisError::InsufficientData(
            "no model produced predictions".into(),
        ));
    }
    let user_errors: Vec<f64> = bdt.per_user_mean_error.iter().map(|(_, e)| *e).collect();
    let bdt_user_error_cdf = CdfFigure::from_values(&user_errors, 60)
        .ok_or_else(|| AnalysisError::InsufficientData("no per-user errors".into()))?;
    Ok(PredictionAnalysis {
        models,
        bdt_user_error_cdf,
        bdt_user_frac_below_5pct: bdt.user_fraction_below(0.05),
        jobs: data.len(),
    })
}

/// Which features a model may see — the feature-ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureSet {
    /// All three features (the paper's configuration).
    All,
    /// User id only.
    UserOnly,
    /// Nodes + walltime, no user (tests how much the user id carries).
    NoUser,
    /// User + nodes, no walltime.
    NoWalltime,
}

impl FeatureSet {
    /// All variants, for sweep harnesses.
    pub fn all_variants() -> [FeatureSet; 4] {
        [
            FeatureSet::All,
            FeatureSet::UserOnly,
            FeatureSet::NoUser,
            FeatureSet::NoWalltime,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureSet::All => "user+nodes+walltime",
            FeatureSet::UserOnly => "user-only",
            FeatureSet::NoUser => "nodes+walltime",
            FeatureSet::NoWalltime => "user+nodes",
        }
    }
}

/// Masks features of an ML dataset according to the feature set
/// (masked features are collapsed to a constant, which makes them
/// useless to any of the models without changing the code paths).
pub fn mask_features(data: &MlDataset, set: FeatureSet) -> MlDataset {
    let mut out = MlDataset::default();
    for i in 0..data.len() {
        let (u, n, w) = data.features.row(i);
        let (u, n, w) = match set {
            FeatureSet::All => (u, n, w),
            FeatureSet::UserOnly => (u, 1.0, 1.0),
            FeatureSet::NoUser => (0, n, w),
            FeatureSet::NoWalltime => (u, n, 1.0),
        };
        out.push(u, n, w, data.targets[i]);
    }
    out
}

/// One row of the feature-ablation table (BDT under a feature subset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Feature subset evaluated.
    pub features: FeatureSet,
    /// Mean absolute percentage error.
    pub mape: f64,
    /// Fraction of predictions with error < 10%.
    pub frac_below_10pct: f64,
}

/// Runs the feature ablation with the BDT model.
pub fn feature_ablation(
    dataset: &TraceDataset,
    cfg: &PredictionConfig,
) -> Result<Vec<AblationRow>> {
    let data = build_ml_dataset(dataset);
    if data.len() < 50 {
        return Err(AnalysisError::InsufficientData("too few jobs".into()));
    }
    let eval_cfg = EvalConfig {
        n_splits: cfg.n_splits.min(5),
        validation_fraction: cfg.validation_fraction,
        seed: cfg.seed,
    };
    let mut rows = Vec::new();
    for set in FeatureSet::all_variants() {
        let masked = mask_features(&data, set);
        let report = evaluate(&masked, &eval_cfg, |t| DecisionTree::fit(t, cfg.tree));
        if report.errors.is_empty() {
            continue;
        }
        rows.push(AblationRow {
            features: set,
            mape: report.mape(),
            frac_below_10pct: report.fraction_below(0.10),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::{AppId, JobId, JobPowerSummary, JobRecord, SystemSpec, UserId};

    /// Template-style dataset: each user has 2 templates with fixed
    /// (nodes, walltime, power).
    fn template_dataset() -> TraceDataset {
        let mut jobs = Vec::new();
        let mut summaries = Vec::new();
        let mut rng = hpcpower_stats::rng::SplitMix64::new(5);
        for user in 0..15u32 {
            for rep in 0..30 {
                let tpl = rep % 2;
                let nodes = if tpl == 0 { 2 + user % 4 } else { 8 + user % 8 };
                let walltime = if tpl == 0 { 120 } else { 480 };
                let base = 70.0 + (user as f64 * 13.0) % 90.0 + tpl as f64 * 25.0;
                let power = base * (1.0 + rng.next_normal() * 0.02);
                let id = JobId(jobs.len() as u32);
                jobs.push(JobRecord {
                    id,
                    user: UserId(user),
                    app: AppId(0),
                    submit_min: 0,
                    start_min: 0,
                    end_min: 100,
                    nodes,
                    walltime_req_min: walltime,
                });
                summaries.push(JobPowerSummary {
                    id,
                    per_node_power_w: power,
                    energy_wmin: power * 100.0 * nodes as f64,
                    peak_overshoot: 0.1,
                    frac_time_above_10pct: 0.0,
                    temporal_cv: 0.05,
                    avg_spatial_spread_w: 10.0,
                    frac_time_spread_above_avg: 0.3,
                    energy_imbalance: 0.05,
                });
            }
        }
        TraceDataset {
            system: SystemSpec::emmy().scaled(32),
            jobs,
            summaries,
            system_series: vec![],
            instrumented: vec![],
            app_names: vec!["A".into()],
            user_count: 15,
            index: Default::default(),
        }
    }

    #[test]
    fn bdt_dominates_on_template_workload() {
        let d = template_dataset();
        let cfg = PredictionConfig {
            n_splits: 3,
            ..Default::default()
        };
        let a = analyze(&d, &cfg).unwrap();
        assert_eq!(a.models.len(), 3);
        let bdt = &a.models[0];
        let flda = &a.models[2];
        assert_eq!(bdt.model, "BDT");
        assert!(
            bdt.frac_below_10pct > 0.9,
            "BDT below-10% fraction {}",
            bdt.frac_below_10pct
        );
        assert!(
            bdt.mape <= flda.mape + 1e-9,
            "BDT ({}) should beat FLDA ({})",
            bdt.mape,
            flda.mape
        );
        assert!(a.bdt_user_frac_below_5pct > 0.8);
    }

    #[test]
    fn ablation_shows_all_features_best() {
        let d = template_dataset();
        let cfg = PredictionConfig {
            n_splits: 2,
            ..Default::default()
        };
        let rows = feature_ablation(&d, &cfg).unwrap();
        assert_eq!(rows.len(), 4);
        let all = rows.iter().find(|r| r.features == FeatureSet::All).unwrap();
        let no_user = rows
            .iter()
            .find(|r| r.features == FeatureSet::NoUser)
            .unwrap();
        assert!(
            all.mape <= no_user.mape + 0.01,
            "full features ({}) should be at least as good as no-user ({})",
            all.mape,
            no_user.mape
        );
    }

    #[test]
    fn mask_features_collapses_columns() {
        let d = build_ml_dataset(&template_dataset());
        let masked = mask_features(&d, FeatureSet::NoUser);
        assert!(masked.features.users.iter().all(|&u| u == 0));
        assert_eq!(masked.targets, d.targets);
        let user_only = mask_features(&d, FeatureSet::UserOnly);
        assert!(user_only.features.nodes.iter().all(|&n| n == 1.0));
    }

    #[test]
    fn too_few_jobs_rejected() {
        let mut d = template_dataset();
        d.jobs.truncate(10);
        d.summaries.truncate(10);
        assert!(analyze(&d, &PredictionConfig::default()).is_err());
    }
}
