//! Dataset invariant checks.
//!
//! Run after import or simulation to guarantee that downstream analyses
//! operate on well-formed data. The invariants encode both schema rules
//! (ids dense and aligned) and physical rules (power within
//! `[0, node TDP]`, times ordered, node counts within the system).
//!
//! [`violations`] collects **every** violation (bounded by
//! [`MAX_VIOLATIONS`] so a completely corrupt multi-GB trace cannot
//! allocate an unbounded report); [`validate`] wraps it into a
//! [`TraceError`]. Dirty datasets can be made valid with
//! [`crate::repair::repair`].

use crate::dataset::TraceDataset;
use crate::{Result, TraceError};

/// Upper bound on the number of violations [`violations`] collects.
pub const MAX_VIOLATIONS: usize = 64;

/// Bounded accumulator for violation messages.
struct Report {
    msgs: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Self { msgs: Vec::new() }
    }

    /// Records a violation; returns `false` once the bound is reached so
    /// callers can stop scanning.
    fn push(&mut self, msg: String) -> bool {
        if self.msgs.len() < MAX_VIOLATIONS {
            self.msgs.push(msg);
        }
        self.msgs.len() < MAX_VIOLATIONS
    }

    fn full(&self) -> bool {
        self.msgs.len() >= MAX_VIOLATIONS
    }
}

/// Collects all invariant violations, bounded by [`MAX_VIOLATIONS`].
///
/// An empty vector means the dataset is valid.
pub fn violations(dataset: &TraceDataset) -> Vec<String> {
    let spec = &dataset.system;
    let mut rep = Report::new();
    if dataset.jobs.len() != dataset.summaries.len() {
        rep.push(format!(
            "jobs ({}) and summaries ({}) misaligned",
            dataset.jobs.len(),
            dataset.summaries.len()
        ));
    }
    for (i, (job, summary)) in dataset.iter_jobs().enumerate() {
        if rep.full() {
            return rep.msgs;
        }
        let ctx = |msg: String| format!("job index {i}: {msg}");
        if job.id.index() != i {
            rep.push(ctx(format!("id {} not dense", job.id)));
        }
        if summary.id != job.id {
            rep.push(ctx(format!("summary id {} mismatched", summary.id)));
        }
        if job.submit_min > job.start_min {
            rep.push(ctx("submit after start".into()));
        }
        if job.start_min >= job.end_min {
            rep.push(ctx("non-positive runtime".into()));
        }
        if job.nodes == 0 || job.nodes > spec.nodes {
            rep.push(ctx(format!(
                "node count {} outside [1, {}]",
                job.nodes, spec.nodes
            )));
        }
        if job.walltime_req_min == 0 {
            rep.push(ctx("zero requested walltime".into()));
        }
        let p = summary.per_node_power_w;
        if !p.is_finite() || p < 0.0 || p > spec.node_tdp_w {
            rep.push(ctx(format!(
                "per-node power {p} outside [0, {}]",
                spec.node_tdp_w
            )));
        }
        if !summary.energy_wmin.is_finite() || summary.energy_wmin < 0.0 {
            rep.push(ctx("negative or non-finite energy".into()));
        }
        for (name, v) in [
            ("peak_overshoot", summary.peak_overshoot),
            ("frac_time_above_10pct", summary.frac_time_above_10pct),
            ("temporal_cv", summary.temporal_cv),
            ("avg_spatial_spread_w", summary.avg_spatial_spread_w),
            (
                "frac_time_spread_above_avg",
                summary.frac_time_spread_above_avg,
            ),
            ("energy_imbalance", summary.energy_imbalance),
        ] {
            if !v.is_finite() || v < 0.0 {
                rep.push(ctx(format!("{name} = {v} invalid")));
            }
        }
        for (name, frac) in [
            ("frac_time_above_10pct", summary.frac_time_above_10pct),
            (
                "frac_time_spread_above_avg",
                summary.frac_time_spread_above_avg,
            ),
        ] {
            if frac > 1.0 {
                rep.push(ctx(format!("{name} = {frac} exceeds 1")));
            }
        }
    }
    let mut last_minute = None;
    for (i, s) in dataset.system_series.iter().enumerate() {
        if rep.full() {
            return rep.msgs;
        }
        if let Some(last) = last_minute {
            if s.minute <= last {
                rep.push(format!(
                    "system sample {i}: minute {} not increasing",
                    s.minute
                ));
            }
        }
        last_minute = Some(s.minute);
        if s.active_nodes > spec.nodes {
            rep.push(format!(
                "system sample {i}: {} active nodes exceeds system size {}",
                s.active_nodes, spec.nodes
            ));
        }
        if !s.total_power_w.is_finite()
            || s.total_power_w < 0.0
            || s.total_power_w > spec.max_system_power_w() * 1.0001
        {
            rep.push(format!(
                "system sample {i}: power {} outside system envelope",
                s.total_power_w
            ));
        }
    }
    for series in &dataset.instrumented {
        if rep.full() {
            return rep.msgs;
        }
        let Some(job) = dataset.job(series.id) else {
            rep.push(format!("instrumented series for unknown {}", series.id));
            continue;
        };
        if series.nodes() != job.nodes {
            rep.push(format!(
                "series {}: {} nodes but job has {}",
                series.id,
                series.nodes(),
                job.nodes
            ));
        }
        if series.minutes() as u64 != job.runtime_min() {
            rep.push(format!(
                "series {}: {} minutes but job ran {}",
                series.id,
                series.minutes(),
                job.runtime_min()
            ));
        }
        if series.has_non_finite() {
            rep.push(format!("series {}: non-finite sample", series.id));
        }
    }
    for job in &dataset.jobs {
        if rep.full() {
            return rep.msgs;
        }
        if job.user.0 >= dataset.user_count {
            rep.push(format!(
                "{}: user {} outside user_count {}",
                job.id, job.user, dataset.user_count
            ));
        }
        if job.app.index() >= dataset.app_names.len() {
            rep.push(format!("{}: app {} has no name entry", job.id, job.app));
        }
    }
    rep.msgs
}

/// Validates all dataset invariants; reports every violation found (up
/// to [`MAX_VIOLATIONS`]) via [`TraceError::Violations`].
pub fn validate(dataset: &TraceDataset) -> Result<()> {
    let v = violations(dataset);
    if v.is_empty() {
        Ok(())
    } else {
        Err(TraceError::Violations(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SystemSample;
    use crate::ids::{AppId, JobId, UserId};
    use crate::job::{JobPowerSummary, JobRecord};
    use crate::system::SystemSpec;

    fn valid_dataset() -> TraceDataset {
        TraceDataset {
            system: SystemSpec::emmy().scaled(16),
            jobs: vec![JobRecord {
                id: JobId(0),
                user: UserId(0),
                app: AppId(0),
                submit_min: 0,
                start_min: 5,
                end_min: 65,
                nodes: 4,
                walltime_req_min: 120,
            }],
            summaries: vec![JobPowerSummary {
                id: JobId(0),
                per_node_power_w: 150.0,
                energy_wmin: 36000.0,
                peak_overshoot: 0.1,
                frac_time_above_10pct: 0.02,
                temporal_cv: 0.08,
                avg_spatial_spread_w: 15.0,
                frac_time_spread_above_avg: 0.3,
                energy_imbalance: 0.06,
            }],
            system_series: vec![SystemSample {
                minute: 0,
                active_nodes: 4,
                total_power_w: 600.0,
            }],
            instrumented: vec![],
            app_names: vec!["Gromacs".into()],
            user_count: 1,
            index: Default::default(),
        }
    }

    #[test]
    fn valid_passes() {
        assert!(validate(&valid_dataset()).is_ok());
        assert!(violations(&valid_dataset()).is_empty());
    }

    #[test]
    fn rejects_power_above_tdp() {
        let mut d = valid_dataset();
        d.summaries[0].per_node_power_w = 250.0;
        assert!(validate(&d).is_err());
    }

    #[test]
    fn rejects_nan_power() {
        let mut d = valid_dataset();
        d.summaries[0].per_node_power_w = f64::NAN;
        let v = violations(&d);
        assert!(v.iter().any(|m| m.contains("per-node power")), "{v:?}");
    }

    #[test]
    fn rejects_nan_system_power() {
        let mut d = valid_dataset();
        d.system_series[0].total_power_w = f64::NAN;
        let v = violations(&d);
        assert!(v.iter().any(|m| m.contains("envelope")), "{v:?}");
    }

    #[test]
    fn rejects_nan_metric() {
        let mut d = valid_dataset();
        d.summaries[0].temporal_cv = f64::NAN;
        let v = violations(&d);
        assert!(v.iter().any(|m| m.contains("temporal_cv")), "{v:?}");
    }

    #[test]
    fn rejects_time_disorder() {
        let mut d = valid_dataset();
        d.jobs[0].start_min = d.jobs[0].end_min;
        assert!(validate(&d).is_err());
    }

    #[test]
    fn rejects_oversized_job() {
        let mut d = valid_dataset();
        d.jobs[0].nodes = 999;
        assert!(validate(&d).is_err());
    }

    #[test]
    fn rejects_fraction_above_one() {
        let mut d = valid_dataset();
        d.summaries[0].frac_time_above_10pct = 1.5;
        assert!(validate(&d).is_err());
    }

    #[test]
    fn rejects_unknown_user_or_app() {
        let mut d = valid_dataset();
        d.jobs[0].user = UserId(5);
        assert!(validate(&d).is_err());
        let mut d = valid_dataset();
        d.jobs[0].app = AppId(5);
        assert!(validate(&d).is_err());
    }

    #[test]
    fn rejects_nondense_ids() {
        let mut d = valid_dataset();
        d.jobs[0].id = JobId(7);
        d.summaries[0].id = JobId(7);
        assert!(validate(&d).is_err());
    }

    #[test]
    fn rejects_unordered_system_series() {
        let mut d = valid_dataset();
        d.system_series.push(SystemSample {
            minute: 0,
            active_nodes: 1,
            total_power_w: 100.0,
        });
        assert!(validate(&d).is_err());
    }

    #[test]
    fn duplicate_minute_is_not_increasing() {
        let mut d = valid_dataset();
        d.system_series.push(SystemSample {
            minute: 0, // duplicate of the existing minute 0
            active_nodes: 4,
            total_power_w: 600.0,
        });
        let v = violations(&d);
        assert!(v.iter().any(|m| m.contains("not increasing")), "{v:?}");
    }

    #[test]
    fn rejects_series_shape_mismatch() {
        let mut d = valid_dataset();
        d.instrumented
            .push(crate::series::JobSeries::new(JobId(0), 4, 10, vec![100.0; 40]).unwrap());
        // Job ran 60 minutes but series has 10.
        assert!(validate(&d).is_err());
    }

    #[test]
    fn rejects_nan_series_sample() {
        let mut d = valid_dataset();
        let mut samples = vec![100.0; 4 * 60];
        samples[17] = f64::NAN;
        d.instrumented
            .push(crate::series::JobSeries::new(JobId(0), 4, 60, samples).unwrap());
        let v = violations(&d);
        assert!(v.iter().any(|m| m.contains("non-finite sample")), "{v:?}");
    }

    #[test]
    fn collects_multiple_violations() {
        let mut d = valid_dataset();
        d.summaries[0].per_node_power_w = -5.0;
        d.summaries[0].frac_time_above_10pct = 2.0;
        d.jobs[0].walltime_req_min = 0;
        let v = violations(&d);
        assert!(v.len() >= 3, "expected >=3 violations, got {v:?}");
        match validate(&d) {
            Err(TraceError::Violations(list)) => assert_eq!(list, v),
            other => panic!("expected Violations, got {other:?}"),
        }
    }

    #[test]
    fn violation_list_is_bounded() {
        let mut d = valid_dataset();
        let job = d.jobs[0];
        let summary = d.summaries[0];
        for i in 1..200u32 {
            let mut j = job;
            j.id = JobId(i);
            j.walltime_req_min = 0; // one violation per job
            let mut s = summary;
            s.id = JobId(i);
            d.jobs.push(j);
            d.summaries.push(s);
        }
        let v = violations(&d);
        assert_eq!(v.len(), MAX_VIOLATIONS);
    }
}
