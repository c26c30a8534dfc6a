//! Spatial power-consumption characteristics (Sec. 4, Figs. 8-10).
//!
//! *RQ5 (spatial half): How does the power consumption of an HPC job vary
//! across the nodes it is running on?*
//!
//! Metrics (visualized in the paper's Fig. 8):
//! * **spatial spread** at time `t` — max node power minus min node power;
//! * **average spatial spread** — its time average (Fig. 9a, and as a
//!   fraction of per-node power in Fig. 9b);
//! * **time above average spread** — fraction of runtime the spread
//!   exceeds its own average (Fig. 9c);
//! * **energy imbalance** — `(max - min) / min` over per-node total
//!   energies (Fig. 10).
//!
//! The headline finding inverts the temporal one: jobs are spatially
//! *uneven* — mean spread ≈20 W (~15% of per-node power), and 20% of
//! jobs show >15% node-energy imbalance.

use hpcpower_stats::correlation;
use hpcpower_stats::Histogram;
use hpcpower_trace::{JobSeries, TraceDataset};
use serde::{Deserialize, Serialize};

use crate::figures::CdfFigure;
use crate::{AnalysisError, Result};

/// Complete spatial analysis of a dataset (multi-node jobs only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialAnalysis {
    /// Fig. 9(a): CDF of the average spatial spread in watts.
    pub spread_w: CdfFigure,
    /// Fig. 9(b): CDF of the spread as a fraction of per-node power.
    pub spread_fraction: CdfFigure,
    /// Fig. 9(c): CDF of the fraction of runtime above the average spread.
    pub time_above_avg_spread: CdfFigure,
    /// Fig. 10: PDF of node-energy imbalance, `(bin center, density)`.
    pub energy_imbalance_density: Vec<(f64, f64)>,
    /// Fraction of jobs with energy imbalance above 15% (paper: >20%).
    pub frac_imbalance_above_15pct: f64,
    /// Spearman correlation of energy imbalance with node count (the
    /// paper: "this difference is correlated with the number of nodes").
    pub imbalance_size_correlation: correlation::Correlation,
    /// Number of multi-node jobs analyzed.
    pub jobs: usize,
}

/// Computes the Figs. 9-10 spatial analysis from job summaries.
pub fn analyze(dataset: &TraceDataset) -> Result<SpatialAnalysis> {
    let mut spread_w = Vec::new();
    let mut spread_frac = Vec::new();
    let mut above = Vec::new();
    let mut imbalance = Vec::new();
    let mut sizes = Vec::new();
    for (job, s) in dataset.iter_jobs() {
        if job.nodes < 2 || job.runtime_min() < crate::temporal::MIN_RUNTIME_MIN {
            continue;
        }
        spread_w.push(s.avg_spatial_spread_w);
        spread_frac.push(s.spatial_spread_fraction());
        above.push(s.frac_time_spread_above_avg);
        imbalance.push(s.energy_imbalance);
        sizes.push(job.nodes as f64);
    }
    if imbalance.len() < 3 {
        return Err(AnalysisError::InsufficientData(
            "need at least 3 multi-node jobs for spatial analysis".into(),
        ));
    }
    let n = imbalance.len();
    let mut hist = Histogram::new(0.0, 0.6, 30)?;
    for v in &imbalance {
        hist.push(*v);
    }
    let above_15 = imbalance.iter().filter(|&&v| v > 0.15).count() as f64 / n as f64;
    Ok(SpatialAnalysis {
        spread_w: CdfFigure::from_values(&spread_w, 60).expect("non-empty"),
        spread_fraction: CdfFigure::from_values(&spread_frac, 60).expect("non-empty"),
        time_above_avg_spread: CdfFigure::from_values(&above, 60).expect("non-empty"),
        energy_imbalance_density: hist.density_series(),
        frac_imbalance_above_15pct: above_15,
        imbalance_size_correlation: correlation::spearman(&sizes, &imbalance)?,
        jobs: n,
    })
}

/// Per-application spatial profile (the per-code view of Fig. 9; CFD
/// codes with irregular meshes should show the widest spreads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpatialRow {
    /// Application name.
    pub app: String,
    /// Mean average spatial spread in watts.
    pub mean_spread_w: f64,
    /// Mean spread as a fraction of per-node power.
    pub mean_spread_fraction: f64,
    /// Mean node-energy imbalance.
    pub mean_energy_imbalance: f64,
    /// Jobs contributing.
    pub jobs: usize,
}

/// Breaks the Fig. 9/10 metrics down per application (multi-node jobs,
/// apps with at least `min_jobs` of them).
pub fn by_app(dataset: &TraceDataset, min_jobs: usize) -> Vec<AppSpatialRow> {
    // The memoized groups keep job order within each app, so the float
    // sums below match a serial pass over `iter_jobs`.
    let mut rows: Vec<AppSpatialRow> = dataset
        .apps_with_jobs()
        .iter()
        .filter_map(|(app, ids)| {
            let (mut w, mut f, mut imb, mut n) = (0.0, 0.0, 0.0, 0usize);
            for &id in ids {
                let (job, s) = (&dataset.jobs[id.index()], &dataset.summaries[id.index()]);
                if job.nodes < 2 || job.runtime_min() < crate::temporal::MIN_RUNTIME_MIN {
                    continue;
                }
                w += s.avg_spatial_spread_w;
                f += s.spatial_spread_fraction();
                imb += s.energy_imbalance;
                n += 1;
            }
            (n >= min_jobs.max(1)).then(|| AppSpatialRow {
                app: dataset.app_name(*app).to_string(),
                mean_spread_w: w / n as f64,
                mean_spread_fraction: f / n as f64,
                mean_energy_imbalance: imb / n as f64,
                jobs: n,
            })
        })
        .collect();
    rows.sort_by(|a, b| a.app.cmp(&b.app));
    rows
}

/// Spatial metrics recomputed exactly from a full per-node series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesSpatialMetrics {
    /// Time-averaged max-min spread in watts.
    pub avg_spread_w: f64,
    /// Fraction of minutes the spread exceeds its average.
    pub frac_time_above_avg: f64,
    /// `(max - min) / min` over per-node energies.
    pub energy_imbalance: f64,
}

/// Computes spatial metrics from a series (exact, two-pass).
pub fn metrics_from_series(series: &JobSeries) -> SeriesSpatialMetrics {
    let minutes = series.minutes();
    let spreads: Vec<f64> = (0..minutes).map(|t| series.spread_at(t)).collect();
    let avg = spreads.iter().sum::<f64>() / spreads.len() as f64;
    let above = spreads.iter().filter(|&&s| s > avg).count() as f64 / spreads.len() as f64;
    let energies = series.node_energies();
    let min_e = energies.iter().copied().fold(f64::INFINITY, f64::min);
    let max_e = energies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    SeriesSpatialMetrics {
        avg_spread_w: avg,
        frac_time_above_avg: above,
        energy_imbalance: if min_e > 0.0 {
            (max_e - min_e) / min_e
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::{AppId, JobId, JobPowerSummary, JobRecord, SystemSpec, UserId};

    fn dataset(n_jobs: u32) -> TraceDataset {
        let mut jobs = Vec::new();
        let mut summaries = Vec::new();
        for i in 0..n_jobs {
            let nodes = 2 + (i % 6);
            jobs.push(JobRecord {
                id: JobId(i),
                user: UserId(0),
                app: AppId(0),
                submit_min: 0,
                start_min: 0,
                end_min: 100,
                nodes,
                walltime_req_min: 120,
            });
            summaries.push(JobPowerSummary {
                id: JobId(i),
                per_node_power_w: 140.0,
                energy_wmin: 140.0 * 100.0 * nodes as f64,
                peak_overshoot: 0.1,
                frac_time_above_10pct: 0.0,
                temporal_cv: 0.05,
                avg_spatial_spread_w: 10.0 + nodes as f64 * 2.0,
                frac_time_spread_above_avg: 0.35,
                // Imbalance grows with node count.
                energy_imbalance: 0.02 * nodes as f64,
            });
        }
        TraceDataset {
            system: SystemSpec::emmy().scaled(16),
            jobs,
            summaries,
            system_series: vec![],
            instrumented: vec![],
            app_names: vec!["A".into()],
            user_count: 1,
            index: Default::default(),
        }
    }

    #[test]
    fn analyze_reports_spread_statistics() {
        let a = analyze(&dataset(30)).unwrap();
        assert_eq!(a.jobs, 30);
        assert!(a.spread_w.stats.mean > 10.0);
        assert!(a.spread_fraction.stats.mean > 0.0 && a.spread_fraction.stats.mean < 1.0);
        // Imbalance correlates with node count by construction.
        assert!(a.imbalance_size_correlation.r > 0.9);
    }

    #[test]
    fn single_node_jobs_excluded() {
        let mut d = dataset(5);
        for j in &mut d.jobs {
            j.nodes = 1;
        }
        assert!(analyze(&d).is_err());
    }

    #[test]
    fn imbalance_threshold_fraction() {
        // nodes 2..7 -> imbalance 0.04..0.14: none above 0.15.
        let a = analyze(&dataset(30)).unwrap();
        assert_eq!(a.frac_imbalance_above_15pct, 0.0);
    }

    #[test]
    fn by_app_reports_spread_differences() {
        let mut d = dataset(30);
        // Recolour half the jobs as a second, wider-spread app.
        d.app_names.push("CFD".into());
        for i in 15..30 {
            d.jobs[i].app = hpcpower_trace::AppId(1);
            d.summaries[i].avg_spatial_spread_w *= 2.0;
        }
        let rows = by_app(&d, 5);
        assert_eq!(rows.len(), 2);
        let a = rows.iter().find(|r| r.app == "A").unwrap();
        let cfd = rows.iter().find(|r| r.app == "CFD").unwrap();
        assert!(cfd.mean_spread_w > a.mean_spread_w * 1.5);
        assert_eq!(a.jobs + cfd.jobs, 30);
    }

    #[test]
    fn metrics_from_constant_series() {
        let s = JobSeries::from_fn(JobId(0), 4, 50, |n, _| 100.0 + n as f64 * 5.0).unwrap();
        let m = metrics_from_series(&s);
        // Spread constant at 15 W.
        assert!((m.avg_spread_w - 15.0).abs() < 1e-12);
        assert_eq!(m.frac_time_above_avg, 0.0);
        // Energies: node0 = 5000, node3 = 5750 -> imbalance 15%.
        assert!((m.energy_imbalance - 0.15).abs() < 1e-12);
    }

    #[test]
    fn metrics_match_summary_semantics() {
        // Alternating spread: 10 then 30 -> avg 20, above-avg half the time.
        let s = JobSeries::from_fn(JobId(1), 2, 100, |n, t| {
            let spread = if t % 2 == 0 { 10.0 } else { 30.0 };
            100.0 + n as f64 * spread
        })
        .unwrap();
        let m = metrics_from_series(&s);
        assert!((m.avg_spread_w - 20.0).abs() < 1e-12);
        assert!((m.frac_time_above_avg - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_integrates_near_one() {
        let a = analyze(&dataset(60)).unwrap();
        let mass: f64 = a
            .energy_imbalance_density
            .windows(2)
            .map(|w| w[0].1 * (w[1].0 - w[0].0))
            .sum();
        assert!(mass > 0.85, "mass {mass}");
    }
}
