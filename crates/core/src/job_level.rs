//! Job-level power characteristics (Sec. 4, Figs. 3-5, Table 2).
//!
//! *RQ3: Do HPC jobs consume less power than the node's TDP level?*
//! *RQ4: Do job-level power characteristics of key applications vary
//! between two different systems?*
//!
//! The central metric is **per-node power**: a job's power averaged over
//! its entire runtime and all of its nodes, which removes job size and
//! length so jobs can be compared directly.

use hpcpower_stats::{correlation, Histogram, Summary};
use hpcpower_trace::TraceDataset;
use serde::{Deserialize, Serialize};

use crate::figures::MeanStd;
use crate::{AnalysisError, Result};

/// Fig. 3: the per-node power distribution of all jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerPdf {
    /// Mean per-node power in watts (paper: Emmy 149 W, Meggie 114 W).
    pub mean_w: f64,
    /// Standard deviation in watts (paper: 39 W / 20 W).
    pub std_w: f64,
    /// Mean as a fraction of node TDP (paper: 71% / 59%).
    pub mean_tdp_fraction: f64,
    /// `(bin center W, density)` series.
    pub density: Vec<(f64, f64)>,
    /// Number of jobs.
    pub jobs: usize,
}

/// Computes the Fig. 3 PDF.
pub fn power_pdf(dataset: &TraceDataset, bins: usize) -> Result<PowerPdf> {
    let powers = dataset.per_node_powers();
    if powers.is_empty() {
        return Err(AnalysisError::InsufficientData("no jobs".into()));
    }
    let summary = Summary::from_slice(powers);
    let mut hist = Histogram::new(0.0, dataset.system.node_tdp_w * 1.0001, bins)?;
    for p in powers {
        hist.push(*p);
    }
    Ok(PowerPdf {
        mean_w: summary.mean(),
        std_w: summary.std_dev(),
        mean_tdp_fraction: summary.mean() / dataset.system.node_tdp_w,
        density: hist.density_series(),
        jobs: powers.len(),
    })
}

/// One application's row in the Fig. 4 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppPowerRow {
    /// Application name.
    pub app: String,
    /// Per-node power statistics over this app's jobs.
    pub power_w: MeanStd,
}

/// Fig. 4: mean per-node power per application.
///
/// `apps = None` reports every application present; `Some(names)`
/// restricts (and orders) the output to those names, skipping absent
/// ones.
pub fn app_power_table(dataset: &TraceDataset, apps: Option<&[&str]>) -> Vec<AppPowerRow> {
    let rollups = dataset.app_rollups();
    let mut rows: Vec<AppPowerRow> = Vec::new();
    let mut emit = |app_id: hpcpower_trace::AppId| {
        let found = rollups.binary_search_by_key(&app_id, |r| r.app);
        if let Ok(i) = found {
            let r = &rollups[i];
            if r.jobs > 0 {
                rows.push(AppPowerRow {
                    app: dataset.app_name(app_id).to_string(),
                    power_w: MeanStd {
                        mean: r.power.mean(),
                        std_dev: if r.power.count() > 1 {
                            r.power.std_dev()
                        } else {
                            0.0
                        },
                        n: r.power.count() as usize,
                    },
                });
            }
        }
    };
    match apps {
        Some(names) => {
            for name in names {
                if let Some(id) = dataset.app_id(name) {
                    emit(id);
                }
            }
        }
        None => {
            for i in 0..dataset.app_names.len() {
                emit(hpcpower_trace::AppId::from_index(i));
            }
        }
    }
    rows
}

/// Table 2: Spearman correlations of job length and size with per-node
/// power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelationTable {
    /// Job length (runtime) vs per-node power.
    pub length_power: correlation::Correlation,
    /// Job size (node count) vs per-node power.
    pub size_power: correlation::Correlation,
}

/// Computes Table 2 for one system.
pub fn correlation_table(dataset: &TraceDataset) -> Result<CorrelationTable> {
    let mut runtime = Vec::with_capacity(dataset.len());
    let mut size = Vec::with_capacity(dataset.len());
    let mut power = Vec::with_capacity(dataset.len());
    for (job, summary) in dataset.iter_jobs() {
        runtime.push(job.runtime_min() as f64);
        size.push(job.nodes as f64);
        power.push(summary.per_node_power_w);
    }
    Ok(CorrelationTable {
        length_power: correlation::spearman(&runtime, &power)?,
        size_power: correlation::spearman(&size, &power)?,
    })
}

/// Fig. 5: per-node power of jobs split at the median runtime ("short" /
/// "long") and at the median size ("small" / "large").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitAnalysis {
    /// Median runtime used as the length split point (minutes).
    pub median_runtime_min: f64,
    /// Median node count used as the size split point.
    pub median_nodes: f64,
    /// Jobs with runtime <= median.
    pub short: MeanStd,
    /// Jobs with runtime > median.
    pub long: MeanStd,
    /// Jobs with nodes <= median.
    pub small: MeanStd,
    /// Jobs with nodes > median.
    pub large: MeanStd,
}

/// Computes the Fig. 5 split analysis.
pub fn split_analysis(dataset: &TraceDataset) -> Result<SplitAnalysis> {
    if dataset.len() < 4 {
        return Err(AnalysisError::InsufficientData(
            "need at least 4 jobs for split analysis".into(),
        ));
    }
    let runtimes: Vec<f64> = dataset
        .jobs
        .iter()
        .map(|j| j.runtime_min() as f64)
        .collect();
    let sizes: Vec<f64> = dataset.jobs.iter().map(|j| j.nodes as f64).collect();
    let powers = dataset.per_node_powers();
    let median_runtime = dataset
        .median_runtime_min()
        .ok_or_else(|| AnalysisError::InsufficientData("no runtimes".into()))?;
    let median_nodes = dataset
        .median_nodes()
        .ok_or_else(|| AnalysisError::InsufficientData("no sizes".into()))?;

    let pick = |pred: &dyn Fn(usize) -> bool| -> Vec<f64> {
        powers
            .iter()
            .enumerate()
            .filter(|(i, _)| pred(*i))
            .map(|(_, &p)| p)
            .collect()
    };
    Ok(SplitAnalysis {
        median_runtime_min: median_runtime,
        median_nodes,
        short: MeanStd::from_values(&pick(&|i| runtimes[i] <= median_runtime)),
        long: MeanStd::from_values(&pick(&|i| runtimes[i] > median_runtime)),
        small: MeanStd::from_values(&pick(&|i| sizes[i] <= median_nodes)),
        large: MeanStd::from_values(&pick(&|i| sizes[i] > median_nodes)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::{AppId, JobId, JobPowerSummary, JobRecord, SystemSpec, UserId};

    /// Builds a dataset where power = 50 + nodes*10 and runtime grows
    /// with power (positive correlations by construction).
    fn synthetic() -> TraceDataset {
        let mut jobs = Vec::new();
        let mut summaries = Vec::new();
        for i in 0..40u32 {
            let nodes = (i % 8) + 1;
            let power = 50.0 + nodes as f64 * 10.0;
            let runtime = 30 + nodes as u64 * 20 + (i % 3) as u64;
            jobs.push(JobRecord {
                id: JobId(i),
                user: UserId(i % 5),
                app: AppId(i % 2),
                submit_min: 0,
                start_min: 10,
                end_min: 10 + runtime,
                nodes,
                walltime_req_min: runtime + 60,
            });
            summaries.push(JobPowerSummary {
                id: JobId(i),
                per_node_power_w: power,
                energy_wmin: power * runtime as f64 * nodes as f64,
                peak_overshoot: 0.1,
                frac_time_above_10pct: 0.0,
                temporal_cv: 0.05,
                avg_spatial_spread_w: 10.0,
                frac_time_spread_above_avg: 0.3,
                energy_imbalance: 0.05,
            });
        }
        TraceDataset {
            system: SystemSpec::emmy().scaled(16),
            jobs,
            summaries,
            system_series: vec![],
            instrumented: vec![],
            app_names: vec!["AppA".into(), "AppB".into()],
            user_count: 5,
            index: Default::default(),
        }
    }

    #[test]
    fn pdf_mean_and_mass() {
        let d = synthetic();
        let pdf = power_pdf(&d, 20).unwrap();
        assert!(pdf.mean_w > 50.0 && pdf.mean_w < 130.0);
        assert_eq!(pdf.jobs, 40);
        let mass: f64 = pdf
            .density
            .windows(2)
            .map(|w| w[0].1 * (w[1].0 - w[0].0))
            .sum();
        assert!((mass - 1.0).abs() < 0.1, "mass {mass}");
        assert!(pdf.mean_tdp_fraction < 1.0);
    }

    #[test]
    fn app_table_covers_apps() {
        let d = synthetic();
        let rows = app_power_table(&d, None);
        assert_eq!(rows.len(), 2);
        let filtered = app_power_table(&d, Some(&["AppB", "Missing"]));
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].app, "AppB");
    }

    #[test]
    fn correlations_positive_by_construction() {
        let d = synthetic();
        let t = correlation_table(&d).unwrap();
        assert!(t.length_power.r > 0.8, "length rho {}", t.length_power.r);
        assert!(t.size_power.r > 0.8, "size rho {}", t.size_power.r);
        assert!(t.length_power.p_value < 1e-6);
    }

    #[test]
    fn split_analysis_orders_means() {
        let d = synthetic();
        let s = split_analysis(&d).unwrap();
        assert!(s.long.mean > s.short.mean);
        assert!(s.large.mean > s.small.mean);
        assert_eq!(s.short.n + s.long.n, 40);
        assert_eq!(s.small.n + s.large.n, 40);
    }

    #[test]
    fn empty_dataset_errors() {
        let mut d = synthetic();
        d.jobs.clear();
        d.summaries.clear();
        assert!(power_pdf(&d, 10).is_err());
        assert!(split_analysis(&d).is_err());
    }
}
