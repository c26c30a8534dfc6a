//! Power-aware pricing analysis (Discussion section).
//!
//! The paper: *"Job execution time and job size cannot be used as a
//! proxy for fair pricing as our result shows that longer-running and
//! larger-size jobs tend to consume higher per-node power and hence,
//! have higher energy cost per node and per time unit."*
//!
//! Under node-hour pricing every job pays the same rate per node-hour;
//! its *energy* cost, however, is proportional to its per-node power.
//! This module quantifies the resulting cross-subsidy: for each job,
//! the ratio of its energy share to its node-hour share (1.0 = fair;
//! >1 = under-charged by node-hour pricing; <1 = over-charged), broken
//! > down by the paper's short/long and small/large median splits.

use hpcpower_trace::TraceDataset;
use serde::{Deserialize, Serialize};

use crate::figures::MeanStd;
use crate::{AnalysisError, Result};

/// Cross-subsidy of one group of jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubsidyGroup {
    /// Mean and spread of the per-job subsidy ratio within the group.
    pub ratio: MeanStd,
    /// The group's aggregate energy share divided by its node-hour
    /// share (the billing-level imbalance).
    pub aggregate_ratio: f64,
}

/// Full pricing analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingAnalysis {
    /// Energy per node-hour across the whole trace, in watt-hours per
    /// node-hour (i.e. the mean delivered per-node power in watts).
    pub mean_power_w: f64,
    /// Jobs with runtime <= median.
    pub short: SubsidyGroup,
    /// Jobs with runtime > median.
    pub long: SubsidyGroup,
    /// Jobs with node count <= median.
    pub small: SubsidyGroup,
    /// Jobs with node count > median.
    pub large: SubsidyGroup,
    /// Jobs analyzed.
    pub jobs: usize,
}

fn group(ratios: &[f64], energies: &[f64], node_hours: &[f64], pick: &[bool]) -> SubsidyGroup {
    let picked: Vec<f64> = ratios
        .iter()
        .zip(pick)
        .filter(|(_, &p)| p)
        .map(|(&r, _)| r)
        .collect();
    let e: f64 = energies
        .iter()
        .zip(pick)
        .filter(|(_, &p)| p)
        .map(|(&v, _)| v)
        .sum();
    let nh: f64 = node_hours
        .iter()
        .zip(pick)
        .filter(|(_, &p)| p)
        .map(|(&v, _)| v)
        .sum();
    let e_total: f64 = energies.iter().sum();
    let nh_total: f64 = node_hours.iter().sum();
    SubsidyGroup {
        ratio: MeanStd::from_values(&picked),
        aggregate_ratio: (e / e_total) / (nh / nh_total),
    }
}

/// Computes the pricing analysis.
pub fn analyze(dataset: &TraceDataset) -> Result<PricingAnalysis> {
    if dataset.len() < 4 {
        return Err(AnalysisError::InsufficientData(
            "need at least 4 jobs for the pricing splits".into(),
        ));
    }
    let mut energies = Vec::with_capacity(dataset.len());
    let mut node_hours = Vec::with_capacity(dataset.len());
    let mut runtimes = Vec::with_capacity(dataset.len());
    let mut sizes = Vec::with_capacity(dataset.len());
    for (job, s) in dataset.iter_jobs() {
        energies.push(s.energy_wmin / 60.0); // Wh
        node_hours.push(job.node_hours());
        runtimes.push(job.runtime_min() as f64);
        sizes.push(job.nodes as f64);
    }
    let e_total: f64 = energies.iter().sum();
    let nh_total: f64 = node_hours.iter().sum();
    let mean_power_w = e_total / nh_total;
    // Per-job subsidy: (energy share) / (node-hour share)
    //                = per-node power / mean per-node power.
    let ratios: Vec<f64> = energies
        .iter()
        .zip(&node_hours)
        .map(|(&e, &nh)| (e / e_total) / (nh / nh_total))
        .collect();
    let median_runtime = dataset
        .median_runtime_min()
        .ok_or_else(|| AnalysisError::InsufficientData("no runtimes".into()))?;
    let median_nodes = dataset
        .median_nodes()
        .ok_or_else(|| AnalysisError::InsufficientData("no sizes".into()))?;
    let short_pick: Vec<bool> = runtimes.iter().map(|&r| r <= median_runtime).collect();
    let long_pick: Vec<bool> = short_pick.iter().map(|&b| !b).collect();
    let small_pick: Vec<bool> = sizes.iter().map(|&s| s <= median_nodes).collect();
    let large_pick: Vec<bool> = small_pick.iter().map(|&b| !b).collect();
    Ok(PricingAnalysis {
        mean_power_w,
        short: group(&ratios, &energies, &node_hours, &short_pick),
        long: group(&ratios, &energies, &node_hours, &long_pick),
        small: group(&ratios, &energies, &node_hours, &small_pick),
        large: group(&ratios, &energies, &node_hours, &large_pick),
        jobs: dataset.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::{AppId, JobId, JobPowerSummary, JobRecord, SystemSpec, UserId};

    /// Long/large jobs draw 160 W; short/small jobs 80 W.
    fn dataset() -> TraceDataset {
        let mut jobs = Vec::new();
        let mut summaries = Vec::new();
        for i in 0..40u32 {
            let long = i % 2 == 0;
            let (nodes, runtime, power) = if long {
                (8u32, 600u64, 160.0)
            } else {
                (2, 100, 80.0)
            };
            jobs.push(JobRecord {
                id: JobId(i),
                user: UserId(0),
                app: AppId(0),
                submit_min: 0,
                start_min: 0,
                end_min: runtime,
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
                avg_spatial_spread_w: 5.0,
                frac_time_spread_above_avg: 0.3,
                energy_imbalance: 0.02,
            });
        }
        TraceDataset {
            system: SystemSpec::emmy().scaled(32),
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
    fn long_large_jobs_are_undercharged() {
        let p = analyze(&dataset()).unwrap();
        // Under node-hour pricing, high-power (long/large) jobs pay less
        // than their energy share: ratio > 1.
        assert!(p.long.aggregate_ratio > 1.0, "{}", p.long.aggregate_ratio);
        assert!(p.large.aggregate_ratio > 1.0);
        assert!(p.short.aggregate_ratio < 1.0);
        assert!(p.small.aggregate_ratio < 1.0);
        // Ratio = power / mean power exactly.
        let expected_long = 160.0 / p.mean_power_w;
        assert!((p.long.ratio.mean - expected_long).abs() < 1e-9);
    }

    #[test]
    fn mean_power_is_node_hour_weighted() {
        let p = analyze(&dataset()).unwrap();
        // Node-hours: long 8*10h=80, short 2*100min=3.33; weighted mean
        // is dominated by the long jobs' 160 W.
        assert!(
            p.mean_power_w > 150.0 && p.mean_power_w < 160.0,
            "{}",
            p.mean_power_w
        );
    }

    #[test]
    fn fair_pricing_when_power_is_uniform() {
        let mut d = dataset();
        for s in &mut d.summaries {
            let job = &d.jobs[s.id.index()];
            s.per_node_power_w = 100.0;
            s.energy_wmin = 100.0 * job.runtime_min() as f64 * job.nodes as f64;
        }
        let p = analyze(&d).unwrap();
        for g in [p.short, p.long, p.small, p.large] {
            assert!((g.aggregate_ratio - 1.0).abs() < 1e-9);
            assert!((g.ratio.mean - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_dataset_rejected() {
        let mut d = dataset();
        d.jobs.truncate(2);
        d.summaries.truncate(2);
        assert!(analyze(&d).is_err());
    }
}
