//! Machine-readable report: every figure's data as one JSON document.
//!
//! The text report (`report`) is for terminals; this module serializes
//! the same analyses as structured JSON so external plotting tools can
//! regenerate the paper's figures graphically.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use hpcpower_trace::repair::DataQualityReport;
use hpcpower_trace::TraceDataset;

use crate::prediction::PredictionConfig;
use crate::{
    job_level, powercap, prediction, pricing, spatial, system_level, temporal, user_level,
};

/// All analyses of one system, serializable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullReport {
    /// System name.
    pub system: String,
    /// Number of jobs analyzed.
    pub jobs: usize,
    /// Figs. 1-2.
    pub system_level: system_level::SystemAnalysis,
    /// Fig. 3.
    pub power_pdf: Option<job_level::PowerPdf>,
    /// Fig. 4 input (all applications present).
    pub app_power: Vec<job_level::AppPowerRow>,
    /// Table 2.
    pub correlations: Option<job_level::CorrelationTable>,
    /// Fig. 5.
    pub splits: Option<job_level::SplitAnalysis>,
    /// Fig. 7.
    pub temporal: Option<temporal::TemporalAnalysis>,
    /// Per-application temporal profiles.
    pub temporal_by_app: Vec<temporal::AppTemporalRow>,
    /// Figs. 9-10.
    pub spatial: Option<spatial::SpatialAnalysis>,
    /// Per-application spatial profiles.
    pub spatial_by_app: Vec<spatial::AppSpatialRow>,
    /// Fig. 11.
    pub concentration: Option<user_level::UserConcentration>,
    /// Fig. 12.
    pub user_variability: Option<user_level::UserVariability>,
    /// Fig. 13 (by nodes, by walltime).
    pub cluster_tightness: Vec<user_level::ClusterTightness>,
    /// Figs. 14-15.
    pub prediction: Option<prediction::PredictionAnalysis>,
    /// Power-cap extension.
    pub powercap: Option<powercap::PowerCapAnalysis>,
    /// Pricing extension.
    pub pricing: Option<pricing::PricingAnalysis>,
    /// Ingestion/repair data-quality summary (`None` for clean traces
    /// analyzed without the repair layer).
    #[serde(default)]
    pub data_quality: Option<DataQualityReport>,
}

/// One analysis result, tagged so the parallel fan-out below can hand
/// each back to its [`FullReport`] field.
enum Part {
    SystemLevel(system_level::SystemAnalysis),
    PowerPdf(Option<job_level::PowerPdf>),
    AppPower(Vec<job_level::AppPowerRow>),
    Correlations(Option<job_level::CorrelationTable>),
    Splits(Option<job_level::SplitAnalysis>),
    Temporal(Option<temporal::TemporalAnalysis>),
    TemporalByApp(Vec<temporal::AppTemporalRow>),
    Spatial(Option<spatial::SpatialAnalysis>),
    SpatialByApp(Vec<spatial::AppSpatialRow>),
    Concentration(Option<user_level::UserConcentration>),
    UserVariability(Option<user_level::UserVariability>),
    ClusterTightness(Vec<user_level::ClusterTightness>),
    Prediction(Option<prediction::PredictionAnalysis>),
    Powercap(Option<powercap::PowerCapAnalysis>),
    Pricing(Option<pricing::PricingAnalysis>),
}

/// Runs every analysis and collects the results. Analyses that cannot
/// run on the dataset (too few jobs, no multi-node jobs, ...) are `None`
/// rather than errors, so a partial dataset still yields a report.
///
/// The analyses are independent and run in parallel on the ambient
/// rayon pool; each writes a fixed field of the report, so the result
/// is identical to the serial version.
pub fn build(dataset: &TraceDataset, cfg: &PredictionConfig) -> FullReport {
    build_with(dataset, cfg, None)
}

/// [`build`] plus an optional data-quality section recording how the
/// trace was repaired before analysis. With `data_quality: None` the
/// report is identical to [`build`]'s.
pub fn build_with(
    dataset: &TraceDataset,
    cfg: &PredictionConfig,
    data_quality: Option<DataQualityReport>,
) -> FullReport {
    let _span = hpcpower_obs::span!("report.json");
    let d = dataset;
    // Each task carries the span name its timing aggregates under
    // (`report.part.<field>`), recorded on whichever worker runs it.
    type Task<'a> = Box<dyn FnOnce() -> Part + Send + 'a>;
    let tasks: Vec<(&str, Task<'_>)> = vec![
        (
            "system_level",
            Box::new(|| Part::SystemLevel(system_level::analyze(d))),
        ),
        (
            "power_pdf",
            Box::new(|| Part::PowerPdf(job_level::power_pdf(d, 40).ok())),
        ),
        (
            "app_power",
            Box::new(|| Part::AppPower(job_level::app_power_table(d, None))),
        ),
        (
            "correlations",
            Box::new(|| Part::Correlations(job_level::correlation_table(d).ok())),
        ),
        (
            "splits",
            Box::new(|| Part::Splits(job_level::split_analysis(d).ok())),
        ),
        (
            "temporal",
            Box::new(|| Part::Temporal(temporal::analyze(d).ok())),
        ),
        (
            "temporal_by_app",
            Box::new(|| Part::TemporalByApp(temporal::by_app(d, 20))),
        ),
        (
            "spatial",
            Box::new(|| Part::Spatial(spatial::analyze(d).ok())),
        ),
        (
            "spatial_by_app",
            Box::new(|| Part::SpatialByApp(spatial::by_app(d, 20))),
        ),
        (
            "concentration",
            Box::new(|| Part::Concentration(user_level::concentration(d).ok())),
        ),
        (
            "user_variability",
            Box::new(|| Part::UserVariability(user_level::user_variability(d, 3).ok())),
        ),
        (
            "cluster_tightness",
            Box::new(|| {
                Part::ClusterTightness(
                    [
                        user_level::ClusterBy::Nodes,
                        user_level::ClusterBy::Walltime,
                    ]
                    .into_iter()
                    .filter_map(|by| user_level::cluster_tightness(d, by, 2).ok())
                    .collect(),
                )
            }),
        ),
        (
            "prediction",
            Box::new(|| Part::Prediction(prediction::analyze(d, cfg).ok())),
        ),
        (
            "powercap",
            Box::new(|| {
                Part::Powercap(powercap::analyze(d, &powercap::default_margins(), cfg).ok())
            }),
        ),
        (
            "pricing",
            Box::new(|| Part::Pricing(pricing::analyze(d).ok())),
        ),
    ];
    let parts: Vec<Part> = tasks
        .into_par_iter()
        .map(|(name, f)| {
            if hpcpower_obs::enabled() {
                hpcpower_obs::time(&format!("report.part.{name}"), f)
            } else {
                f()
            }
        })
        .collect();

    let mut system_level = None;
    let mut power_pdf = None;
    let mut app_power = Vec::new();
    let mut correlations = None;
    let mut splits = None;
    let mut temporal = None;
    let mut temporal_by_app = Vec::new();
    let mut spatial = None;
    let mut spatial_by_app = Vec::new();
    let mut concentration = None;
    let mut user_variability = None;
    let mut cluster_tightness = Vec::new();
    let mut prediction = None;
    let mut powercap = None;
    let mut pricing = None;
    for part in parts {
        match part {
            Part::SystemLevel(v) => system_level = Some(v),
            Part::PowerPdf(v) => power_pdf = v,
            Part::AppPower(v) => app_power = v,
            Part::Correlations(v) => correlations = v,
            Part::Splits(v) => splits = v,
            Part::Temporal(v) => temporal = v,
            Part::TemporalByApp(v) => temporal_by_app = v,
            Part::Spatial(v) => spatial = v,
            Part::SpatialByApp(v) => spatial_by_app = v,
            Part::Concentration(v) => concentration = v,
            Part::UserVariability(v) => user_variability = v,
            Part::ClusterTightness(v) => cluster_tightness = v,
            Part::Prediction(v) => prediction = v,
            Part::Powercap(v) => powercap = v,
            Part::Pricing(v) => pricing = v,
        }
    }
    FullReport {
        system: dataset.system.name.clone(),
        jobs: dataset.len(),
        system_level: system_level.expect("system-level task always runs"),
        power_pdf,
        app_power,
        correlations,
        splits,
        temporal,
        temporal_by_app,
        spatial,
        spatial_by_app,
        concentration,
        user_variability,
        cluster_tightness,
        prediction,
        powercap,
        pricing,
        data_quality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_sim::SimConfig;

    #[test]
    fn full_report_serializes_and_round_trips() {
        let dataset = hpcpower_sim::simulate(SimConfig::emmy_small(2));
        let cfg = PredictionConfig {
            n_splits: 2,
            ..Default::default()
        };
        let report = build(&dataset, &cfg);
        assert!(report.power_pdf.is_some());
        assert!(report.prediction.is_some());
        assert!(!report.app_power.is_empty());
        let json = serde_json::to_string(&report).expect("serializes");
        let back: FullReport = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back.system, report.system);
        assert_eq!(back.jobs, report.jobs);
        assert_eq!(
            back.power_pdf.as_ref().unwrap().mean_w,
            report.power_pdf.as_ref().unwrap().mean_w
        );
    }

    #[test]
    fn data_quality_section_is_optional_and_round_trips() {
        let dataset = hpcpower_sim::simulate(SimConfig::emmy_small(2));
        let cfg = PredictionConfig {
            n_splits: 2,
            ..Default::default()
        };
        let clean = build(&dataset, &cfg);
        assert!(clean.data_quality.is_none(), "clean path stays untouched");

        let quality = DataQualityReport {
            jobs_total: dataset.len() as u64,
            rows_quarantined: 3,
            ..Default::default()
        };
        let report = build_with(&dataset, &cfg, Some(quality.clone()));
        assert_eq!(report.data_quality.as_ref(), Some(&quality));
        let json = serde_json::to_string(&report).expect("serializes");
        assert!(json.contains("\"rows_quarantined\""));
        let back: FullReport = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back.data_quality, Some(quality));
    }

    #[test]
    fn partial_dataset_yields_partial_report() {
        // A dataset with too few jobs for prediction still reports the
        // basic figures.
        let mut dataset = hpcpower_sim::simulate(SimConfig::emmy_small(3));
        dataset.jobs.truncate(20);
        dataset.summaries.truncate(20);
        let report = build(&dataset, &PredictionConfig::default());
        assert!(report.power_pdf.is_some());
        assert!(report.prediction.is_none(), "50-job minimum not met");
    }
}
