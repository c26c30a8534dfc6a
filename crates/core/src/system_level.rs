//! System-level utilization and power analysis (Sec. 3, Figs. 1-2).
//!
//! *RQ1: What is the level of system utilization of both HPC systems?*
//! *RQ2: Are the HPC systems utilizing their power budget at the same
//! level as their system utilization?*
//!
//! System utilization at minute `t` is `active nodes / total nodes`;
//! power utilization is `total node power / (total nodes × node TDP)` —
//! the gap between the two is the paper's **stranded power**.

use hpcpower_trace::TraceDataset;
use serde::{Deserialize, Serialize};

use crate::figures::Series;

/// Summary of one utilization signal over the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationStats {
    /// Time-averaged utilization in `[0, 1]`.
    pub mean: f64,
    /// Minimum over the analyzed window.
    pub min: f64,
    /// Maximum over the analyzed window.
    pub max: f64,
}

/// Full system-level analysis result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemAnalysis {
    /// Node-count utilization (Fig. 1).
    pub utilization: UtilizationStats,
    /// Power utilization relative to the TDP envelope (Fig. 2).
    pub power: UtilizationStats,
    /// Mean stranded-power fraction: `1 - power.mean` — the slice of the
    /// provisioned budget the facility pays for but never draws.
    pub stranded_fraction: f64,
    /// Minutes skipped at the head of the trace (cold-start ramp of the
    /// simulator; a real 5-month window starts warm).
    pub warmup_skipped_min: u64,
}

/// Default warmup: skip the first 5% of the trace.
pub fn default_warmup(dataset: &TraceDataset) -> u64 {
    dataset.duration_min() / 20
}

/// Computes utilization and power-utilization statistics.
pub fn analyze_with_warmup(dataset: &TraceDataset, warmup_min: u64) -> SystemAnalysis {
    let nodes = dataset.system.nodes as f64;
    let max_power = dataset.system.max_system_power_w();
    let mut util = (0.0, f64::INFINITY, f64::NEG_INFINITY, 0u64);
    let mut power = (0.0, f64::INFINITY, f64::NEG_INFINITY);
    for s in dataset
        .system_series
        .iter()
        .filter(|s| s.minute >= warmup_min)
    {
        let u = s.active_nodes as f64 / nodes;
        let p = s.total_power_w / max_power;
        util.0 += u;
        util.1 = util.1.min(u);
        util.2 = util.2.max(u);
        util.3 += 1;
        power.0 += p;
        power.1 = power.1.min(p);
        power.2 = power.2.max(p);
    }
    let n = util.3.max(1) as f64;
    let power_mean = power.0 / n;
    SystemAnalysis {
        utilization: UtilizationStats {
            mean: util.0 / n,
            min: if util.3 == 0 { f64::NAN } else { util.1 },
            max: if util.3 == 0 { f64::NAN } else { util.2 },
        },
        power: UtilizationStats {
            mean: power_mean,
            min: if util.3 == 0 { f64::NAN } else { power.1 },
            max: if util.3 == 0 { f64::NAN } else { power.2 },
        },
        stranded_fraction: 1.0 - power_mean,
        warmup_skipped_min: warmup_min,
    }
}

/// [`analyze_with_warmup`] with the default warmup window.
pub fn analyze(dataset: &TraceDataset) -> SystemAnalysis {
    analyze_with_warmup(dataset, default_warmup(dataset))
}

/// Downsampled utilization series for plotting (Fig. 1): one point per
/// `bucket_min` minutes, y = mean utilization in the bucket.
pub fn utilization_series(dataset: &TraceDataset, bucket_min: u64) -> Series {
    let nodes = dataset.system.nodes as f64;
    bucketize(
        dataset,
        bucket_min,
        |s| s.active_nodes as f64 / nodes,
        "system utilization",
    )
}

/// Downsampled power-utilization series (Fig. 2).
pub fn power_series(dataset: &TraceDataset, bucket_min: u64) -> Series {
    let max_power = dataset.system.max_system_power_w();
    bucketize(
        dataset,
        bucket_min,
        |s| s.total_power_w / max_power,
        "power utilization",
    )
}

fn bucketize(
    dataset: &TraceDataset,
    bucket_min: u64,
    f: impl Fn(&hpcpower_trace::dataset::SystemSample) -> f64,
    label: &str,
) -> Series {
    let bucket_min = bucket_min.max(1);
    let mut points = Vec::new();
    let mut acc = 0.0;
    let mut count = 0u64;
    let mut bucket = 0u64;
    for s in &dataset.system_series {
        let b = s.minute / bucket_min;
        if b != bucket && count > 0 {
            points.push(((bucket * bucket_min) as f64, acc / count as f64));
            acc = 0.0;
            count = 0;
        }
        bucket = b;
        acc += f(s);
        count += 1;
    }
    if count > 0 {
        points.push(((bucket * bucket_min) as f64, acc / count as f64));
    }
    Series::new(label, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::dataset::SystemSample;
    use hpcpower_trace::SystemSpec;

    fn dataset_with_series(samples: Vec<SystemSample>) -> TraceDataset {
        TraceDataset {
            system: SystemSpec::emmy().scaled(10),
            jobs: vec![],
            summaries: vec![],
            system_series: samples,
            instrumented: vec![],
            app_names: vec![],
            user_count: 0,
            index: Default::default(),
        }
    }

    fn sample(minute: u64, active: u32, power: f64) -> SystemSample {
        SystemSample {
            minute,
            active_nodes: active,
            total_power_w: power,
        }
    }

    #[test]
    fn utilization_and_power_computed() {
        // 10 nodes, TDP 210 -> max power 2100 W.
        let d = dataset_with_series(vec![
            sample(0, 10, 2100.0), // skipped by warmup below
            sample(1, 8, 1050.0),
            sample(2, 6, 525.0),
        ]);
        let a = analyze_with_warmup(&d, 1);
        assert!((a.utilization.mean - 0.7).abs() < 1e-12);
        assert!((a.power.mean - 0.375).abs() < 1e-12);
        assert!((a.stranded_fraction - 0.625).abs() < 1e-12);
        assert_eq!(a.utilization.max, 0.8);
        assert_eq!(a.utilization.min, 0.6);
    }

    #[test]
    fn warmup_skips_head() {
        let d = dataset_with_series(vec![sample(0, 0, 0.0), sample(1, 10, 2100.0)]);
        let a = analyze_with_warmup(&d, 1);
        assert_eq!(a.utilization.mean, 1.0);
        assert_eq!(a.power.mean, 1.0);
    }

    #[test]
    fn empty_window_is_nan_safe() {
        let d = dataset_with_series(vec![sample(0, 5, 1000.0)]);
        let a = analyze_with_warmup(&d, 100);
        assert!(a.utilization.min.is_nan());
        assert_eq!(a.utilization.mean, 0.0);
    }

    #[test]
    fn series_downsamples() {
        let samples: Vec<SystemSample> = (0..100)
            .map(|m| sample(m, (m % 10) as u32, 100.0))
            .collect();
        let d = dataset_with_series(samples);
        let s = utilization_series(&d, 10);
        assert_eq!(s.points.len(), 10);
        // Each bucket averages 0..9 tenths -> 0.45.
        for (_, y) in &s.points {
            assert!((y - 0.45).abs() < 1e-12);
        }
    }

    #[test]
    fn power_never_exceeds_utilization_for_subtdp_jobs() {
        // Jobs draw below TDP: power utilization < node utilization.
        let d = dataset_with_series(vec![sample(0, 8, 8.0 * 150.0)]);
        let a = analyze_with_warmup(&d, 0);
        assert!(a.power.mean < a.utilization.mean);
    }
}
