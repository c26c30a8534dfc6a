//! End-to-end integration tests spanning the whole stack: simulate →
//! validate → serialize → re-analyze, plus cross-checks between the
//! streaming monitor and exact trace-level recomputation.

use std::io::BufReader;

use hpcpower::prelude::*;
use hpcpower_sim::{simulate, ClusterSim, SimConfig};
use hpcpower_trace::{csv, json, validate::validate};

#[test]
fn simulated_datasets_satisfy_all_invariants() {
    for seed in [1, 2, 3] {
        let emmy = simulate(SimConfig::emmy_small(seed));
        validate(&emmy).unwrap_or_else(|e| panic!("Emmy seed {seed}: {e}"));
        let meggie = simulate(SimConfig::meggie_small(seed));
        validate(&meggie).unwrap_or_else(|e| panic!("Meggie seed {seed}: {e}"));
    }
}

#[test]
fn monitor_summaries_match_series_recomputation() {
    // The streaming monitor's one-pass metrics must agree with exact
    // two-pass recomputation from the retained per-node series.
    let dataset = simulate(SimConfig::emmy_small(5));
    assert!(
        dataset.instrumented.len() >= 10,
        "need instrumented jobs, got {}",
        dataset.instrumented.len()
    );
    for series in &dataset.instrumented {
        let summary = dataset.summary(series.id).expect("summary exists");
        let t = temporal::metrics_from_series(series);
        let s = spatial::metrics_from_series(series);
        let err = |a: f64, b: f64| (a - b).abs();
        assert!(
            err(series.per_node_power(), summary.per_node_power_w) < 1e-6,
            "{}: per-node power mismatch",
            series.id
        );
        assert!(
            err(t.peak_overshoot, summary.peak_overshoot) < 5e-3,
            "{}: overshoot {} vs {}",
            series.id,
            t.peak_overshoot,
            summary.peak_overshoot
        );
        assert!(
            err(t.frac_time_above_10pct, summary.frac_time_above_10pct) < 0.02,
            "{}: time-above mismatch",
            series.id
        );
        assert!(
            err(t.temporal_cv, summary.temporal_cv) < 5e-3,
            "{}: temporal CV mismatch",
            series.id
        );
        assert!(
            err(s.avg_spread_w, summary.avg_spatial_spread_w) < 0.2,
            "{}: spread {} vs {}",
            series.id,
            s.avg_spread_w,
            summary.avg_spatial_spread_w
        );
        assert!(
            err(s.energy_imbalance, summary.energy_imbalance) < 1e-6,
            "{}: energy imbalance mismatch",
            series.id
        );
    }
}

#[test]
fn csv_and_json_round_trips_preserve_analysis_results() {
    let dataset = simulate(SimConfig::meggie_small(9));

    // CSV: the flat tables.
    let mut jobs_buf = Vec::new();
    csv::write_jobs(&mut jobs_buf, &dataset.jobs, &dataset.summaries).unwrap();
    let (jobs2, summaries2) = csv::read_jobs(BufReader::new(&jobs_buf[..])).unwrap();
    assert_eq!(jobs2, dataset.jobs);
    assert_eq!(summaries2, dataset.summaries);

    let mut sys_buf = Vec::new();
    csv::write_system(&mut sys_buf, &dataset.system_series).unwrap();
    let series2 = csv::read_system(BufReader::new(&sys_buf[..])).unwrap();
    assert_eq!(series2, dataset.system_series);

    // JSON: the whole dataset; analyses must agree bit-for-bit.
    let mut json_buf = Vec::new();
    json::write_dataset(&mut json_buf, &dataset).unwrap();
    let reread = json::read_dataset(&json_buf[..]).unwrap();
    let pdf_a = job_level::power_pdf(&dataset, 30).unwrap();
    let pdf_b = job_level::power_pdf(&reread, 30).unwrap();
    assert_eq!(pdf_a.mean_w, pdf_b.mean_w);
    assert_eq!(pdf_a.density, pdf_b.density);
    let sys_a = system_level::analyze(&dataset);
    let sys_b = system_level::analyze(&reread);
    assert_eq!(sys_a, sys_b);
}

#[test]
fn simulation_is_reproducible_and_seed_sensitive() {
    let a = simulate(SimConfig::emmy_small(77));
    let b = simulate(SimConfig::emmy_small(77));
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.summaries, b.summaries);
    assert_eq!(a.instrumented, b.instrumented);
    let c = simulate(SimConfig::emmy_small(78));
    assert_ne!(a.jobs, c.jobs);
}

#[test]
fn ground_truth_is_exposed_for_ablations() {
    let out = ClusterSim::new(SimConfig::emmy_small(4)).run();
    assert_eq!(out.job_params.len(), out.dataset.len());
    assert_eq!(out.users.len(), out.dataset.user_count as usize);
    // The resolved base power must sit inside the physical envelope.
    for p in &out.job_params {
        assert!(p.base_w > 0.0 && p.base_w < out.dataset.system.node_tdp_w * 1.5);
    }
    // Every job references a known user and template.
    for job in &out.dataset.jobs {
        let user = &out.users[job.user.index()];
        assert!(!user.templates.is_empty());
    }
}

#[test]
fn report_renders_for_both_systems() {
    let emmy = simulate(SimConfig::emmy_small(6));
    let meggie = simulate(SimConfig::meggie_small(6));
    let cfg = hpcpower::prediction::PredictionConfig {
        n_splits: 2,
        ..Default::default()
    };
    let text = hpcpower::report::render_pair(&emmy, &meggie, &cfg);
    for needle in [
        "Fig. 3", "Fig. 4", "Fig. 7", "Fig. 11", "Fig. 14", "Table 2",
    ] {
        assert!(text.contains(needle), "report missing {needle}");
    }
    assert!(text.contains(&emmy.system.name));
    assert!(text.contains(&meggie.system.name));
}

#[test]
fn accounting_times_are_consistent_with_scheduling() {
    let dataset = simulate(SimConfig::emmy_small(8));
    for job in &dataset.jobs {
        assert!(job.submit_min <= job.start_min);
        assert!(job.start_min < job.end_min);
        // The scheduler kills jobs at the requested walltime.
        assert!(job.runtime_min() <= job.walltime_req_min);
    }
    // Backlog exists on a production system: some jobs waited.
    let waited = dataset.jobs.iter().filter(|j| j.wait_min() > 0).count();
    assert!(
        waited > dataset.len() / 20,
        "expected queueing on a loaded system, {waited} of {} waited",
        dataset.len()
    );
}
