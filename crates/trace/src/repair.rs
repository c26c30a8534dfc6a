//! Dataset repair: turn a dirty trace into one that passes
//! [`crate::validate::validate`].
//!
//! Production power telemetry is messy — RAPL samples go missing, nodes
//! die mid-job, sensors latch or glitch, clocks drift. Patel et al.
//! explicitly *filter jobs with incomplete power records* before
//! analysis; this module generalises that data-cleaning step into three
//! pluggable [`RepairPolicy`] variants and reports everything it did in
//! a [`DataQualityReport`].
//!
//! ## Semantics
//!
//! Two classes of damage are treated differently:
//!
//! * **Out-of-range but present** values (a spike above TDP, a fraction
//!   above 1, an out-of-order sample) are *clipped/sorted* under every
//!   policy — a bounded sensor glitch does not invalidate the record.
//! * **Missing** values (NaN power, NaN energy, NaN series samples,
//!   gaps in the system series) follow the policy: [`RepairPolicy::DropJob`]
//!   drops the affected job like the paper; [`RepairPolicy::HoldLast`]
//!   and [`RepairPolicy::Linear`] impute.
//!
//! Structurally unrepairable jobs (zero-length runtime, zero nodes) are
//! dropped under every policy, and surviving jobs are re-identified so
//! ids stay dense. `repair` is idempotent: running it twice yields the
//! same dataset as running it once.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::dataset::TraceDataset;
use crate::ids::JobId;
use crate::validate;

/// How missing samples and incomplete power records are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RepairPolicy {
    /// Drop jobs with incomplete power records (the paper's choice).
    #[default]
    DropJob,
    /// Impute missing samples by holding the last observed value.
    HoldLast,
    /// Impute missing samples by linear interpolation between the
    /// nearest observed neighbours.
    Linear,
}

impl std::str::FromStr for RepairPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "drop-job" | "drop" => Ok(RepairPolicy::DropJob),
            "hold-last" | "hold" => Ok(RepairPolicy::HoldLast),
            "linear" => Ok(RepairPolicy::Linear),
            other => Err(format!(
                "unknown repair policy '{other}' (expected drop-job, hold-last, or linear)"
            )),
        }
    }
}

impl std::fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairPolicy::DropJob => write!(f, "drop-job"),
            RepairPolicy::HoldLast => write!(f, "hold-last"),
            RepairPolicy::Linear => write!(f, "linear"),
        }
    }
}

/// Configuration for [`repair`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RepairConfig {
    /// Policy for missing data.
    pub policy: RepairPolicy,
    /// Rows quarantined during ingestion, carried into the report (zero
    /// when the dataset did not come from a lenient parse).
    #[serde(default)]
    pub rows_quarantined: u64,
}

impl RepairConfig {
    /// A config with the given policy and no ingestion context.
    pub fn with_policy(policy: RepairPolicy) -> Self {
        Self {
            policy,
            rows_quarantined: 0,
        }
    }
}

/// Everything [`repair`] did to make the dataset valid — the
/// data-quality section of reports.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DataQualityReport {
    /// Policy used for missing data.
    pub policy: RepairPolicy,
    /// Jobs present before repair.
    pub jobs_total: u64,
    /// Jobs dropped (incomplete records or unrepairable structure).
    pub jobs_dropped: u64,
    /// Accounting-side fixes (submit/start order, zero walltime,
    /// oversized node counts, misaligned summary ids, user/app ranges).
    pub records_repaired: u64,
    /// Summary values clipped back into physical range.
    pub summaries_clipped: u64,
    /// Summary values imputed (energy recomputed, metrics zeroed).
    pub summaries_imputed: u64,
    /// Out-of-order system samples re-sorted.
    pub system_out_of_order: u64,
    /// Duplicate system minutes removed (first occurrence kept).
    pub system_duplicates: u64,
    /// System samples clipped into the system power envelope.
    pub system_clipped: u64,
    /// Non-finite system samples imputed (or dropped under drop-job).
    pub system_imputed: u64,
    /// Missing minutes detected between the first and last sample.
    pub system_gap_minutes: u64,
    /// Samples inserted to fill those gaps (hold-last / linear only).
    pub system_gaps_imputed: u64,
    /// Instrumented series present before repair.
    pub series_total: u64,
    /// Series dropped (orphaned, shape-mismatched, or incomplete under
    /// drop-job).
    pub series_dropped: u64,
    /// Series truncated to the (repaired) job runtime after a crash.
    pub series_truncated: u64,
    /// Individual series samples imputed.
    pub series_samples_imputed: u64,
    /// Individual series samples clipped to `[0, node TDP]`.
    pub series_samples_clipped: u64,
    /// Rows quarantined during ingestion (from [`RepairConfig`]).
    pub rows_quarantined: u64,
    /// Percentage of expected system-series minutes present after
    /// repair (100 when the series is empty or gap-free).
    pub coverage_pct: f64,
    /// Violations reported by [`validate::violations`] before repair
    /// (bounded by [`validate::MAX_VIOLATIONS`]).
    pub violations_before: u64,
    /// Violations remaining after repair (zero on success).
    pub violations_after: u64,
}

impl DataQualityReport {
    /// Whether the repair pass found nothing to do.
    pub fn is_clean(&self) -> bool {
        self.jobs_dropped == 0
            && self.records_repaired == 0
            && self.summaries_clipped == 0
            && self.summaries_imputed == 0
            && self.system_out_of_order == 0
            && self.system_duplicates == 0
            && self.system_clipped == 0
            && self.system_imputed == 0
            && self.system_gap_minutes == 0
            && self.series_dropped == 0
            && self.series_truncated == 0
            && self.series_samples_imputed == 0
            && self.series_samples_clipped == 0
            && self.rows_quarantined == 0
            && self.violations_before == 0
    }

    /// Total repaired/imputed/clipped items — the obs rollup counter.
    pub fn rows_repaired(&self) -> u64 {
        self.records_repaired
            + self.summaries_clipped
            + self.summaries_imputed
            + self.system_out_of_order
            + self.system_duplicates
            + self.system_clipped
            + self.system_imputed
            + self.system_gaps_imputed
            + self.series_truncated
            + self.series_samples_imputed
            + self.series_samples_clipped
    }
}

/// Imputes non-finite entries in `row` by holding the last finite value
/// (leading gaps are back-filled from the first finite value; an
/// all-NaN row becomes zeros). Returns the number of imputed entries.
fn impute_hold_last(row: &mut [f64]) -> u64 {
    let first_finite = row.iter().copied().find(|v| v.is_finite()).unwrap_or(0.0);
    let mut last = first_finite;
    let mut imputed = 0;
    for v in row.iter_mut() {
        if v.is_finite() {
            last = *v;
        } else {
            *v = last;
            imputed += 1;
        }
    }
    imputed
}

/// Imputes non-finite entries in `row` by linear interpolation between
/// the nearest finite neighbours (edges hold the nearest finite value;
/// an all-NaN row becomes zeros). Returns the number of imputed entries.
fn impute_linear(row: &mut [f64]) -> u64 {
    let mut imputed = 0;
    let mut i = 0;
    while i < row.len() {
        if row[i].is_finite() {
            i += 1;
            continue;
        }
        // Gap [i, j).
        let mut j = i;
        while j < row.len() && !row[j].is_finite() {
            j += 1;
        }
        let left = if i > 0 { Some(row[i - 1]) } else { None };
        let right = if j < row.len() { Some(row[j]) } else { None };
        for (k, slot) in row.iter_mut().enumerate().take(j).skip(i) {
            *slot = match (left, right) {
                (Some(l), Some(r)) => {
                    let span = (j - i + 1) as f64;
                    let frac = (k - i + 1) as f64 / span;
                    l + (r - l) * frac
                }
                (Some(l), None) => l,
                (None, Some(r)) => r,
                (None, None) => 0.0,
            };
            imputed += 1;
        }
        i = j;
    }
    imputed
}

/// Sorts, dedups, clips, and (policy-dependent) gap-fills the system
/// series.
fn repair_system_series(d: &mut TraceDataset, policy: RepairPolicy, rep: &mut DataQualityReport) {
    let series = &mut d.system_series;
    let max_power = d.system.max_system_power_w();
    // Out-of-order detection before sorting.
    rep.system_out_of_order = series
        .windows(2)
        .filter(|w| w[1].minute <= w[0].minute)
        .count() as u64;
    series.sort_by_key(|s| s.minute);
    // Dedup equal minutes, keeping the first occurrence (stable sort
    // preserves file order within a minute).
    let before = series.len();
    let mut seen_last: Option<u64> = None;
    series.retain(|s| {
        let dup = seen_last == Some(s.minute);
        seen_last = Some(s.minute);
        !dup
    });
    rep.system_duplicates = (before - series.len()) as u64;
    // Clip present-but-out-of-range values; mark missing ones.
    for s in series.iter_mut() {
        if s.active_nodes > d.system.nodes {
            s.active_nodes = d.system.nodes;
            rep.system_clipped += 1;
        }
        if s.total_power_w.is_finite() {
            let clipped = s.total_power_w.clamp(0.0, max_power);
            if clipped != s.total_power_w {
                s.total_power_w = clipped;
                rep.system_clipped += 1;
            }
        }
    }
    // Missing power values.
    match policy {
        RepairPolicy::DropJob => {
            let before = series.len();
            series.retain(|s| s.total_power_w.is_finite());
            rep.system_imputed += (before - series.len()) as u64;
        }
        RepairPolicy::HoldLast | RepairPolicy::Linear => {
            let mut powers: Vec<f64> = series.iter().map(|s| s.total_power_w).collect();
            let n = match policy {
                RepairPolicy::Linear => impute_linear(&mut powers),
                _ => impute_hold_last(&mut powers),
            };
            rep.system_imputed += n;
            for (s, p) in series.iter_mut().zip(powers) {
                s.total_power_w = p;
            }
        }
    }
    // Gap detection and (optionally) filling.
    if let (Some(first), Some(last)) = (series.first(), series.last()) {
        let expected = last.minute - first.minute + 1;
        rep.system_gap_minutes = expected - series.len() as u64;
        if rep.system_gap_minutes > 0 && policy != RepairPolicy::DropJob {
            let mut filled = Vec::with_capacity(expected as usize);
            for w in series.windows(2) {
                let (a, b) = (w[0], w[1]);
                filled.push(a);
                let span = b.minute - a.minute;
                for k in 1..span {
                    let frac = k as f64 / span as f64;
                    let (nodes, power) = match policy {
                        RepairPolicy::Linear => (
                            (a.active_nodes as f64
                                + (b.active_nodes as f64 - a.active_nodes as f64) * frac)
                                .round() as u32,
                            a.total_power_w + (b.total_power_w - a.total_power_w) * frac,
                        ),
                        _ => (a.active_nodes, a.total_power_w),
                    };
                    filled.push(crate::dataset::SystemSample {
                        minute: a.minute + k,
                        active_nodes: nodes,
                        total_power_w: power,
                    });
                    rep.system_gaps_imputed += 1;
                }
            }
            filled.push(*series.last().unwrap());
            *series = filled;
        }
    }
    // Coverage after repair.
    rep.coverage_pct = match (series.first(), series.last()) {
        (Some(first), Some(last)) if last.minute > first.minute => {
            let expected = (last.minute - first.minute + 1) as f64;
            100.0 * series.len() as f64 / expected
        }
        _ => 100.0,
    };
}

/// Repairs accounting records and power summaries; returns the set of
/// job indices to drop.
fn repair_jobs(
    d: &mut TraceDataset,
    policy: RepairPolicy,
    rep: &mut DataQualityReport,
) -> Vec<bool> {
    // Misaligned tables cannot be trusted beyond the common prefix.
    if d.jobs.len() != d.summaries.len() {
        let n = d.jobs.len().min(d.summaries.len());
        rep.jobs_dropped += (d.jobs.len().max(d.summaries.len()) - n) as u64;
        d.jobs.truncate(n);
        d.summaries.truncate(n);
    }
    let spec_nodes = d.system.nodes;
    let tdp = d.system.node_tdp_w;
    let mut drop = vec![false; d.jobs.len()];
    for (i, (job, summary)) in d.jobs.iter_mut().zip(d.summaries.iter_mut()).enumerate() {
        if summary.id != job.id {
            summary.id = job.id;
            rep.records_repaired += 1;
        }
        if job.submit_min > job.start_min {
            job.submit_min = job.start_min;
            rep.records_repaired += 1;
        }
        if job.start_min >= job.end_min || job.nodes == 0 {
            // Structurally unrepairable under any policy.
            drop[i] = true;
            continue;
        }
        if job.nodes > spec_nodes {
            job.nodes = spec_nodes;
            rep.records_repaired += 1;
        }
        if job.walltime_req_min == 0 {
            job.walltime_req_min = job.runtime_min();
            rep.records_repaired += 1;
        }
        // Missing power record: policy decides.
        let power_missing = !summary.per_node_power_w.is_finite();
        let energy_missing = !summary.energy_wmin.is_finite() || summary.energy_wmin < 0.0;
        if (power_missing || energy_missing) && policy == RepairPolicy::DropJob {
            drop[i] = true;
            continue;
        }
        if power_missing {
            let rt = job.runtime_min() as f64 * job.nodes as f64;
            summary.per_node_power_w = if energy_missing || rt <= 0.0 {
                0.0
            } else {
                summary.energy_wmin / rt
            };
            rep.summaries_imputed += 1;
        }
        // Present-but-out-of-range power: clip under every policy.
        let clipped = summary.per_node_power_w.clamp(0.0, tdp);
        if clipped != summary.per_node_power_w {
            summary.per_node_power_w = clipped;
            rep.summaries_clipped += 1;
        }
        if energy_missing {
            summary.energy_wmin =
                summary.per_node_power_w * job.nodes as f64 * job.runtime_min() as f64;
            rep.summaries_imputed += 1;
        }
        for v in [
            &mut summary.peak_overshoot,
            &mut summary.temporal_cv,
            &mut summary.avg_spatial_spread_w,
            &mut summary.energy_imbalance,
        ] {
            if !v.is_finite() || *v < 0.0 {
                if policy == RepairPolicy::DropJob && !v.is_finite() {
                    drop[i] = true;
                    break;
                }
                *v = 0.0;
                rep.summaries_imputed += 1;
            }
        }
        if drop[i] {
            continue;
        }
        for v in [
            &mut summary.frac_time_above_10pct,
            &mut summary.frac_time_spread_above_avg,
        ] {
            if !v.is_finite() {
                if policy == RepairPolicy::DropJob {
                    drop[i] = true;
                    break;
                }
                *v = 0.0;
                rep.summaries_imputed += 1;
            } else if *v < 0.0 || *v > 1.0 {
                *v = v.clamp(0.0, 1.0);
                rep.summaries_clipped += 1;
            }
        }
    }
    drop
}

/// Repairs instrumented series against the (already repaired) jobs;
/// may extend the drop set under the drop-job policy.
fn repair_series(
    d: &mut TraceDataset,
    policy: RepairPolicy,
    rep: &mut DataQualityReport,
    drop: &mut [bool],
) {
    let tdp = d.system.node_tdp_w;
    let jobs = &d.jobs;
    let mut kept = Vec::with_capacity(d.instrumented.len());
    for mut series in std::mem::take(&mut d.instrumented) {
        let Some(job) = jobs.get(series.id.index()).filter(|j| j.id == series.id) else {
            rep.series_dropped += 1;
            continue;
        };
        if drop[series.id.index()] || series.nodes() != job.nodes {
            rep.series_dropped += 1;
            continue;
        }
        let runtime = job.runtime_min();
        if (series.minutes() as u64) != runtime {
            // A crash truncated the job record; cut the series to match.
            match u32::try_from(runtime)
                .ok()
                .and_then(|m| series.truncated(m))
            {
                Some(t) => {
                    series = t;
                    rep.series_truncated += 1;
                }
                None => {
                    rep.series_dropped += 1;
                    continue;
                }
            }
        }
        if series.has_non_finite() {
            if policy == RepairPolicy::DropJob {
                // The paper's filter: the job's power record is
                // incomplete, so the job goes too.
                drop[series.id.index()] = true;
                rep.series_dropped += 1;
                continue;
            }
            for node in 0..series.nodes() {
                let row = series.node_row_mut(node);
                rep.series_samples_imputed += match policy {
                    RepairPolicy::Linear => impute_linear(row),
                    _ => impute_hold_last(row),
                };
            }
        }
        for node in 0..series.nodes() {
            for v in series.node_row_mut(node) {
                let clipped = v.clamp(0.0, tdp);
                if clipped != *v {
                    *v = clipped;
                    rep.series_samples_clipped += 1;
                }
            }
        }
        kept.push(series);
    }
    d.instrumented = kept;
}

/// Removes dropped jobs and re-identifies survivors so ids stay dense.
fn compact(d: &mut TraceDataset, drop: &[bool], rep: &mut DataQualityReport) {
    if drop.iter().all(|&x| !x) && d.jobs.iter().enumerate().all(|(i, j)| j.id.index() == i) {
        return;
    }
    let mut remap: HashMap<JobId, JobId> = HashMap::new();
    let mut next = 0u32;
    let mut jobs = Vec::with_capacity(d.jobs.len());
    let mut summaries = Vec::with_capacity(d.summaries.len());
    for (i, (mut job, mut summary)) in std::mem::take(&mut d.jobs)
        .into_iter()
        .zip(std::mem::take(&mut d.summaries))
        .enumerate()
    {
        if drop[i] {
            rep.jobs_dropped += 1;
            continue;
        }
        let new_id = JobId(next);
        next += 1;
        if job.id != new_id {
            rep.records_repaired += 1;
        }
        remap.insert(job.id, new_id);
        job.id = new_id;
        summary.id = new_id;
        jobs.push(job);
        summaries.push(summary);
    }
    d.jobs = jobs;
    d.summaries = summaries;
    let mut kept_series = Vec::with_capacity(d.instrumented.len());
    for mut series in std::mem::take(&mut d.instrumented) {
        match remap.get(&series.id) {
            Some(&new_id) => {
                series.id = new_id;
                kept_series.push(series);
            }
            None => rep.series_dropped += 1,
        }
    }
    d.instrumented = kept_series;
}

/// Fixes user/app ranges after compaction.
fn repair_namespaces(d: &mut TraceDataset, rep: &mut DataQualityReport) {
    let max_user = d.jobs.iter().map(|j| j.user.0).max();
    if let Some(max_user) = max_user {
        if max_user >= d.user_count {
            d.user_count = max_user + 1;
            rep.records_repaired += 1;
        }
    }
    let max_app = d.jobs.iter().map(|j| j.app.index()).max();
    if let Some(max_app) = max_app {
        while d.app_names.len() <= max_app {
            d.app_names.push(format!("unknown-{}", d.app_names.len()));
            rep.records_repaired += 1;
        }
    }
}

/// Repairs the dataset in place so that [`validate::validate`] passes,
/// and reports everything that was done.
pub fn repair(d: &mut TraceDataset, cfg: &RepairConfig) -> DataQualityReport {
    let mut rep = DataQualityReport {
        policy: cfg.policy,
        rows_quarantined: cfg.rows_quarantined,
        jobs_total: d.jobs.len() as u64,
        series_total: d.instrumented.len() as u64,
        coverage_pct: 100.0,
        ..Default::default()
    };
    rep.violations_before = validate::violations(d).len() as u64;
    repair_system_series(d, cfg.policy, &mut rep);
    let mut drop = repair_jobs(d, cfg.policy, &mut rep);
    repair_series(d, cfg.policy, &mut rep, &mut drop);
    compact(d, &drop, &mut rep);
    repair_namespaces(d, &mut rep);
    d.reset_index();
    rep.violations_after = validate::violations(d).len() as u64;
    let repaired = rep.rows_repaired();
    if repaired > 0 {
        hpcpower_obs::counter_add("repair.rows_repaired", repaired);
    }
    if rep.jobs_dropped > 0 {
        hpcpower_obs::counter_add("repair.jobs_dropped", rep.jobs_dropped);
    }
    if rep.rows_quarantined > 0 {
        hpcpower_obs::counter_add("repair.rows_quarantined", rep.rows_quarantined);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SystemSample;
    use crate::ids::{AppId, UserId};
    use crate::job::{JobPowerSummary, JobRecord};
    use crate::series::JobSeries;
    use crate::system::SystemSpec;

    fn base_dataset() -> TraceDataset {
        let jobs: Vec<JobRecord> = (0..4)
            .map(|i| JobRecord {
                id: JobId(i),
                user: UserId(i % 2),
                app: AppId(0),
                submit_min: 0,
                start_min: 5,
                end_min: 65,
                nodes: 2,
                walltime_req_min: 120,
            })
            .collect();
        let summaries = jobs
            .iter()
            .map(|j| JobPowerSummary {
                id: j.id,
                per_node_power_w: 150.0,
                energy_wmin: 150.0 * 60.0 * 2.0,
                peak_overshoot: 0.1,
                frac_time_above_10pct: 0.02,
                temporal_cv: 0.08,
                avg_spatial_spread_w: 15.0,
                frac_time_spread_above_avg: 0.3,
                energy_imbalance: 0.06,
            })
            .collect();
        let system_series = (0..10)
            .map(|m| SystemSample {
                minute: m,
                active_nodes: 8,
                total_power_w: 1200.0,
            })
            .collect();
        let instrumented = vec![JobSeries::from_fn(JobId(0), 2, 60, |_, _| 150.0).unwrap()];
        TraceDataset {
            system: SystemSpec::emmy().scaled(16),
            jobs,
            summaries,
            system_series,
            instrumented,
            app_names: vec!["Gromacs".into()],
            user_count: 2,
            index: Default::default(),
        }
    }

    #[test]
    fn clean_dataset_is_untouched() {
        let mut d = base_dataset();
        let orig = d.clone();
        let rep = repair(&mut d, &RepairConfig::default());
        assert!(rep.is_clean(), "{rep:?}");
        assert_eq!(d.jobs, orig.jobs);
        assert_eq!(d.summaries, orig.summaries);
        assert_eq!(d.system_series, orig.system_series);
        assert_eq!(d.instrumented, orig.instrumented);
        assert_eq!(rep.violations_after, 0);
        assert!((rep.coverage_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sorts_dedups_and_clips_system_series() {
        let mut d = base_dataset();
        d.system_series.swap(2, 3); // out of order
        d.system_series.push(SystemSample {
            minute: 9,          // duplicate
            active_nodes: 99,   // above system size
            total_power_w: 1e9, // above envelope
        });
        d.system_series[0].total_power_w = f64::NAN;
        let rep = repair(&mut d, &RepairConfig::with_policy(RepairPolicy::HoldLast));
        assert!(rep.system_out_of_order >= 1);
        assert_eq!(rep.system_duplicates, 1);
        assert_eq!(rep.system_imputed, 1);
        assert!(validate::validate(&d).is_ok());
    }

    #[test]
    fn gap_filling_follows_policy() {
        for (policy, expect_len) in [
            (RepairPolicy::DropJob, 7), // gaps left open
            (RepairPolicy::HoldLast, 10),
            (RepairPolicy::Linear, 10),
        ] {
            let mut d = base_dataset();
            d.system_series.remove(5);
            d.system_series.remove(5);
            d.system_series.remove(5); // minutes 5..=7 missing
            let rep = repair(&mut d, &RepairConfig::with_policy(policy));
            assert_eq!(rep.system_gap_minutes, 3, "{policy}");
            assert_eq!(d.system_series.len(), expect_len, "{policy}");
            assert!(validate::validate(&d).is_ok(), "{policy}");
            if policy == RepairPolicy::DropJob {
                assert!(rep.coverage_pct < 100.0);
            } else {
                assert_eq!(rep.system_gaps_imputed, 3);
                assert!((rep.coverage_pct - 100.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn drop_job_drops_incomplete_records() {
        let mut d = base_dataset();
        d.summaries[1].per_node_power_w = f64::NAN;
        let rep = repair(&mut d, &RepairConfig::default());
        assert_eq!(rep.jobs_dropped, 1);
        assert_eq!(d.jobs.len(), 3);
        // Ids re-densified.
        for (i, j) in d.jobs.iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
        assert!(validate::validate(&d).is_ok());
    }

    #[test]
    fn hold_last_imputes_instead_of_dropping() {
        let mut d = base_dataset();
        d.summaries[1].per_node_power_w = f64::NAN;
        d.summaries[2].energy_wmin = f64::NAN;
        let rep = repair(&mut d, &RepairConfig::with_policy(RepairPolicy::HoldLast));
        assert_eq!(rep.jobs_dropped, 0);
        assert_eq!(d.jobs.len(), 4);
        assert!(rep.summaries_imputed >= 2);
        // Energy recomputed from power.
        assert!((d.summaries[2].energy_wmin - 150.0 * 2.0 * 60.0).abs() < 1e-9);
        assert!(validate::validate(&d).is_ok());
    }

    #[test]
    fn spikes_are_clipped_under_every_policy() {
        for policy in [
            RepairPolicy::DropJob,
            RepairPolicy::HoldLast,
            RepairPolicy::Linear,
        ] {
            let mut d = base_dataset();
            d.summaries[0].per_node_power_w = 500.0; // above 210 W TDP
            d.summaries[0].frac_time_above_10pct = 1.4;
            let rep = repair(&mut d, &RepairConfig::with_policy(policy));
            assert_eq!(rep.jobs_dropped, 0, "{policy}: spikes are not drops");
            assert_eq!(d.summaries[0].per_node_power_w, 210.0);
            assert_eq!(d.summaries[0].frac_time_above_10pct, 1.0);
            assert!(validate::validate(&d).is_ok());
        }
    }

    #[test]
    fn crashed_job_series_is_truncated() {
        let mut d = base_dataset();
        d.jobs[0].end_min = 35; // crash at minute 30 of 60
        let rep = repair(&mut d, &RepairConfig::default());
        assert_eq!(rep.series_truncated, 1);
        assert_eq!(d.instrumented[0].minutes(), 30);
        assert!(validate::validate(&d).is_ok());
    }

    #[test]
    fn nan_series_sample_follows_policy() {
        let mut d = base_dataset();
        d.instrumented[0].set_power(1, 10, f64::NAN);
        let rep = repair(&mut d, &RepairConfig::default());
        assert_eq!(rep.jobs_dropped, 1, "drop-job drops the job");
        assert!(d.instrumented.is_empty());
        assert!(validate::validate(&d).is_ok());

        let mut d = base_dataset();
        d.instrumented[0].set_power(1, 10, f64::NAN);
        let rep = repair(&mut d, &RepairConfig::with_policy(RepairPolicy::Linear));
        assert_eq!(rep.jobs_dropped, 0);
        assert_eq!(rep.series_samples_imputed, 1);
        assert_eq!(d.instrumented[0].power(1, 10), 150.0, "linear between 150s");
        assert!(validate::validate(&d).is_ok());
    }

    #[test]
    fn unrepairable_structure_always_dropped() {
        for policy in [
            RepairPolicy::DropJob,
            RepairPolicy::HoldLast,
            RepairPolicy::Linear,
        ] {
            let mut d = base_dataset();
            d.jobs[0].end_min = d.jobs[0].start_min; // zero runtime
            d.jobs[2].nodes = 0;
            let rep = repair(&mut d, &RepairConfig::with_policy(policy));
            assert_eq!(rep.jobs_dropped, 2, "{policy}");
            assert_eq!(d.jobs.len(), 2, "{policy}");
            assert!(validate::validate(&d).is_ok(), "{policy}");
        }
    }

    #[test]
    fn namespace_ranges_are_widened() {
        let mut d = base_dataset();
        d.jobs[0].user = UserId(9);
        d.jobs[1].app = AppId(3);
        let rep = repair(&mut d, &RepairConfig::default());
        assert!(rep.records_repaired >= 2);
        assert_eq!(d.user_count, 10);
        assert_eq!(d.app_names.len(), 4);
        assert!(validate::validate(&d).is_ok());
    }

    #[test]
    fn repair_is_idempotent() {
        for policy in [
            RepairPolicy::DropJob,
            RepairPolicy::HoldLast,
            RepairPolicy::Linear,
        ] {
            let mut d = base_dataset();
            d.summaries[1].per_node_power_w = f64::NAN;
            d.system_series.remove(4);
            d.jobs[2].submit_min = 99; // after start
            d.instrumented[0].set_power(0, 5, f64::NAN);
            repair(&mut d, &RepairConfig::with_policy(policy));
            let once = d.clone();
            let second = repair(&mut d, &RepairConfig::with_policy(policy));
            assert_eq!(d.jobs, once.jobs, "{policy}");
            assert_eq!(d.summaries, once.summaries, "{policy}");
            assert_eq!(d.system_series, once.system_series, "{policy}");
            assert_eq!(d.instrumented, once.instrumented, "{policy}");
            assert_eq!(second.jobs_dropped, 0, "{policy}");
            assert_eq!(second.rows_repaired(), 0, "{policy}");
        }
    }

    #[test]
    fn policy_round_trips_through_strings() {
        for (s, p) in [
            ("drop-job", RepairPolicy::DropJob),
            ("hold-last", RepairPolicy::HoldLast),
            ("linear", RepairPolicy::Linear),
        ] {
            assert_eq!(s.parse::<RepairPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert!("bogus".parse::<RepairPolicy>().is_err());
    }

    #[test]
    fn linear_imputation_interpolates() {
        let mut row = vec![100.0, f64::NAN, f64::NAN, 160.0];
        assert_eq!(impute_linear(&mut row), 2);
        assert!((row[1] - 120.0).abs() < 1e-9);
        assert!((row[2] - 140.0).abs() < 1e-9);
        let mut edges = vec![f64::NAN, 50.0, f64::NAN];
        impute_linear(&mut edges);
        assert_eq!(edges, vec![50.0, 50.0, 50.0]);
        let mut empty = vec![f64::NAN; 3];
        impute_linear(&mut empty);
        assert_eq!(empty, vec![0.0; 3]);
    }

    #[test]
    fn hold_last_imputation_carries_forward() {
        let mut row = vec![f64::NAN, 100.0, f64::NAN, 130.0, f64::NAN];
        assert_eq!(impute_hold_last(&mut row), 3);
        assert_eq!(row, vec![100.0, 100.0, 100.0, 130.0, 130.0]);
    }
}
