//! Temporal power-consumption characteristics (Sec. 4, Figs. 6-7).
//!
//! *RQ5 (temporal half): How does the power consumption of an HPC job
//! vary during its runtime?*
//!
//! Metrics (visualized in the paper's Fig. 6):
//! * **peak overshoot** — how far the job's peak power rises above its
//!   mean (`peak / mean - 1`);
//! * **time above 10%** — the fraction of runtime spent more than 10%
//!   above the mean;
//! * **temporal CV** — std/mean of the node-averaged power over time.
//!
//! The headline finding: HPC jobs are temporally *flat* — average
//! overshoot ≈10-12%, and >70% of jobs spend ≈0% of their runtime more
//! than 10% above their mean.

use hpcpower_stats::online::TimeAboveMeanTracker;
use hpcpower_trace::{JobSeries, TraceDataset};
use serde::{Deserialize, Serialize};

use crate::figures::CdfFigure;
use crate::{AnalysisError, Result};

/// Jobs shorter than this are excluded: with only a handful of samples
/// the overshoot/time-above metrics are dominated by sampling noise.
pub const MIN_RUNTIME_MIN: u64 = 10;

/// Complete temporal analysis of a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalAnalysis {
    /// Fig. 7(a): CDF of peak overshoot over jobs.
    pub overshoot: CdfFigure,
    /// Fig. 7(b): CDF of fraction of runtime >10% above the mean.
    pub time_above_10pct: CdfFigure,
    /// Fraction of jobs that spend (essentially) zero runtime above the
    /// 10% threshold (paper: >70%).
    pub frac_jobs_never_above: f64,
    /// Mean temporal coefficient of variation (paper: ~11%).
    pub mean_temporal_cv: f64,
    /// Number of jobs analyzed.
    pub jobs: usize,
}

/// Computes the Fig. 7 temporal analysis from job summaries.
pub fn analyze(dataset: &TraceDataset) -> Result<TemporalAnalysis> {
    let mut overshoots = Vec::new();
    let mut above = Vec::new();
    let mut cv_sum = 0.0;
    for (job, s) in dataset.iter_jobs() {
        if job.runtime_min() < MIN_RUNTIME_MIN {
            continue;
        }
        overshoots.push(s.peak_overshoot);
        above.push(s.frac_time_above_10pct);
        cv_sum += s.temporal_cv;
    }
    if overshoots.is_empty() {
        return Err(AnalysisError::InsufficientData(
            "no jobs long enough for temporal analysis".into(),
        ));
    }
    let n = overshoots.len();
    // "Almost 0% of their total runtime": under 2% — transient one-minute
    // excursions on a multi-hour job do not constitute a phase.
    let never = above.iter().filter(|&&f| f < 0.02).count() as f64 / n as f64;
    Ok(TemporalAnalysis {
        overshoot: CdfFigure::from_values(&overshoots, 60).expect("non-empty by construction"),
        time_above_10pct: CdfFigure::from_values(&above, 60).expect("non-empty"),
        frac_jobs_never_above: never,
        mean_temporal_cv: cv_sum / n as f64,
        jobs: n,
    })
}

/// Per-application temporal profile (the paper instrumented "selected
/// key applications"; this is the per-code view of Fig. 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppTemporalRow {
    /// Application name.
    pub app: String,
    /// Mean peak overshoot over the app's jobs.
    pub mean_overshoot: f64,
    /// Mean fraction of runtime >10% above the mean.
    pub mean_time_above: f64,
    /// Mean temporal CV.
    pub mean_cv: f64,
    /// Jobs contributing.
    pub jobs: usize,
}

/// Breaks the Fig. 7 metrics down per application (apps with at least
/// `min_jobs` qualifying jobs).
pub fn by_app(dataset: &TraceDataset, min_jobs: usize) -> Vec<AppTemporalRow> {
    // The memoized groups keep job order within each app, so the float
    // sums below match a serial pass over `iter_jobs`.
    let mut rows: Vec<AppTemporalRow> = dataset
        .apps_with_jobs()
        .iter()
        .filter_map(|(app, ids)| {
            let (mut o, mut a, mut c, mut n) = (0.0, 0.0, 0.0, 0usize);
            for &id in ids {
                let (job, s) = (&dataset.jobs[id.index()], &dataset.summaries[id.index()]);
                if job.runtime_min() < MIN_RUNTIME_MIN {
                    continue;
                }
                o += s.peak_overshoot;
                a += s.frac_time_above_10pct;
                c += s.temporal_cv;
                n += 1;
            }
            (n >= min_jobs.max(1)).then(|| AppTemporalRow {
                app: dataset.app_name(*app).to_string(),
                mean_overshoot: o / n as f64,
                mean_time_above: a / n as f64,
                mean_cv: c / n as f64,
                jobs: n,
            })
        })
        .collect();
    rows.sort_by(|a, b| a.app.cmp(&b.app));
    rows
}

/// Temporal metrics recomputed directly from a full per-node series —
/// the trace-level path a user of the released dataset would take; also
/// used to cross-validate the streaming monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesTemporalMetrics {
    /// Peak overshoot of the node-averaged power.
    pub peak_overshoot: f64,
    /// Fraction of minutes more than 10% above the mean.
    pub frac_time_above_10pct: f64,
    /// Temporal coefficient of variation.
    pub temporal_cv: f64,
}

/// Computes temporal metrics from a series (exact, two-pass).
pub fn metrics_from_series(series: &JobSeries) -> SeriesTemporalMetrics {
    let minutes = series.minutes();
    let job_power: Vec<f64> = (0..minutes).map(|t| series.job_power_at(t)).collect();
    let mean = job_power.iter().sum::<f64>() / job_power.len() as f64;
    let peak = job_power.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let above =
        job_power.iter().filter(|&&p| p > mean * 1.10).count() as f64 / job_power.len() as f64;
    let var = job_power.iter().map(|p| (p - mean).powi(2)).sum::<f64>()
        / (job_power.len() as f64 - 1.0).max(1.0);
    SeriesTemporalMetrics {
        peak_overshoot: (peak / mean - 1.0).max(0.0),
        frac_time_above_10pct: above,
        temporal_cv: var.sqrt() / mean,
    }
}

/// Streaming variant of [`metrics_from_series`] built on the online
/// trackers; demonstrates (and tests) that the monitor's one-pass
/// pipeline agrees with the exact two-pass computation.
pub fn metrics_from_series_streaming(series: &JobSeries, tdp_w: f64) -> SeriesTemporalMetrics {
    let mut tracker = TimeAboveMeanTracker::new(tdp_w * 1.05, 0.1);
    for t in 0..series.minutes() {
        tracker.push(series.job_power_at(t));
    }
    SeriesTemporalMetrics {
        peak_overshoot: tracker.peak_overshoot().max(0.0),
        frac_time_above_10pct: tracker.fraction_above_mean_factor(1.10),
        temporal_cv: tracker.temporal_cv(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::JobId;

    fn flat_series(power: f64, minutes: u32) -> JobSeries {
        JobSeries::from_fn(JobId(0), 2, minutes, |_, _| power).unwrap()
    }

    #[test]
    fn flat_series_has_zero_metrics() {
        let m = metrics_from_series(&flat_series(100.0, 60));
        assert!(m.peak_overshoot.abs() < 1e-12);
        assert_eq!(m.frac_time_above_10pct, 0.0);
        assert!(m.temporal_cv.abs() < 1e-12);
    }

    #[test]
    fn bursty_series_metrics() {
        // 90 minutes at 100 W, 10 minutes at 130 W.
        let s = JobSeries::from_fn(JobId(1), 1, 100, |_, t| if t < 10 { 130.0 } else { 100.0 })
            .unwrap();
        let m = metrics_from_series(&s);
        // Mean = 103; peak = 130 -> overshoot ~26%.
        assert!((m.peak_overshoot - (130.0 / 103.0 - 1.0)).abs() < 1e-9);
        // 130 > 1.1*103 = 113.3 -> 10% of time above.
        assert!((m.frac_time_above_10pct - 0.10).abs() < 1e-9);
    }

    #[test]
    fn streaming_agrees_with_exact() {
        let s = JobSeries::from_fn(JobId(2), 3, 200, |n, t| {
            100.0 + (t % 7) as f64 * 3.0 + n as f64
        })
        .unwrap();
        let exact = metrics_from_series(&s);
        let stream = metrics_from_series_streaming(&s, 210.0);
        assert!((exact.peak_overshoot - stream.peak_overshoot).abs() < 2e-3);
        assert!((exact.frac_time_above_10pct - stream.frac_time_above_10pct).abs() < 0.02);
        assert!((exact.temporal_cv - stream.temporal_cv).abs() < 2e-3);
    }

    #[test]
    fn analyze_summarizes_dataset() {
        use hpcpower_trace::{AppId, JobPowerSummary, JobRecord, SystemSpec, UserId};
        let mut jobs = Vec::new();
        let mut summaries = Vec::new();
        for i in 0..30u32 {
            jobs.push(JobRecord {
                id: JobId(i),
                user: UserId(0),
                app: AppId(0),
                submit_min: 0,
                start_min: 0,
                end_min: 120,
                nodes: 2,
                walltime_req_min: 180,
            });
            summaries.push(JobPowerSummary {
                id: JobId(i),
                per_node_power_w: 120.0,
                energy_wmin: 120.0 * 120.0 * 2.0,
                peak_overshoot: if i < 21 { 0.08 } else { 0.3 },
                frac_time_above_10pct: if i < 21 { 0.0 } else { 0.2 },
                temporal_cv: 0.1,
                avg_spatial_spread_w: 10.0,
                frac_time_spread_above_avg: 0.3,
                energy_imbalance: 0.04,
            });
        }
        let d = TraceDataset {
            system: SystemSpec::emmy().scaled(8),
            jobs,
            summaries,
            system_series: vec![],
            instrumented: vec![],
            app_names: vec!["A".into()],
            user_count: 1,
            index: Default::default(),
        };
        let a = analyze(&d).unwrap();
        assert_eq!(a.jobs, 30);
        assert!((a.frac_jobs_never_above - 0.7).abs() < 1e-9);
        assert!((a.mean_temporal_cv - 0.1).abs() < 1e-9);
        assert!(a.overshoot.stats.mean > 0.08 && a.overshoot.stats.mean < 0.3);
    }

    #[test]
    fn by_app_groups_and_filters() {
        use hpcpower_trace::{AppId, JobPowerSummary, JobRecord, SystemSpec, UserId};
        let mut jobs = Vec::new();
        let mut summaries = Vec::new();
        for i in 0..12u32 {
            let app = i % 2; // 6 jobs each
            jobs.push(JobRecord {
                id: JobId(i),
                user: UserId(0),
                app: AppId(app),
                submit_min: 0,
                start_min: 0,
                end_min: 60,
                nodes: 2,
                walltime_req_min: 120,
            });
            summaries.push(JobPowerSummary {
                id: JobId(i),
                per_node_power_w: 100.0,
                energy_wmin: 12000.0,
                peak_overshoot: if app == 0 { 0.05 } else { 0.25 },
                frac_time_above_10pct: 0.0,
                temporal_cv: 0.1,
                avg_spatial_spread_w: 5.0,
                frac_time_spread_above_avg: 0.3,
                energy_imbalance: 0.02,
            });
        }
        let d = TraceDataset {
            system: SystemSpec::emmy().scaled(8),
            jobs,
            summaries,
            system_series: vec![],
            instrumented: vec![],
            app_names: vec!["Quiet".into(), "Spiky".into()],
            user_count: 1,
            index: Default::default(),
        };
        let rows = by_app(&d, 3);
        assert_eq!(rows.len(), 2);
        let quiet = rows.iter().find(|r| r.app == "Quiet").unwrap();
        let spiky = rows.iter().find(|r| r.app == "Spiky").unwrap();
        assert!((quiet.mean_overshoot - 0.05).abs() < 1e-12);
        assert!((spiky.mean_overshoot - 0.25).abs() < 1e-12);
        assert_eq!(quiet.jobs, 6);
        // A high min_jobs filters everything out.
        assert!(by_app(&d, 100).is_empty());
    }

    #[test]
    fn short_jobs_excluded() {
        use hpcpower_trace::{AppId, JobPowerSummary, JobRecord, SystemSpec, UserId};
        let d = TraceDataset {
            system: SystemSpec::emmy().scaled(8),
            jobs: vec![JobRecord {
                id: JobId(0),
                user: UserId(0),
                app: AppId(0),
                submit_min: 0,
                start_min: 0,
                end_min: 5, // < MIN_RUNTIME_MIN
                nodes: 1,
                walltime_req_min: 60,
            }],
            summaries: vec![JobPowerSummary {
                id: JobId(0),
                per_node_power_w: 100.0,
                energy_wmin: 500.0,
                peak_overshoot: 0.5,
                frac_time_above_10pct: 0.5,
                temporal_cv: 0.5,
                avg_spatial_spread_w: 0.0,
                frac_time_spread_above_avg: 0.0,
                energy_imbalance: 0.0,
            }],
            system_series: vec![],
            instrumented: vec![],
            app_names: vec!["A".into()],
            user_count: 1,
            index: Default::default(),
        };
        assert!(analyze(&d).is_err());
    }
}
