//! Robustness round trip: fault injection → repair → analysis.
//!
//! Pins the tentpole acceptance criteria: the round-trip guarantee holds
//! at 1%, 5%, and 20% fault rates; faulted CSV exports are byte-identical
//! at 1 and 4 threads; and the paper's three predictors survive (with
//! degraded accuracy) on repaired dirty data.

use hpcpower::prediction::{self, PredictionConfig};
use hpcpower_sim::{simulate, with_threads, FaultConfig, SimConfig};
use hpcpower_trace::csv;
use hpcpower_trace::repair::{repair, RepairConfig, RepairPolicy};
use hpcpower_trace::validate::validate;
use hpcpower_trace::TraceDataset;

const RATES: [f64; 3] = [0.01, 0.05, 0.20];

fn faulted(seed: u64, rate: f64, threads: usize) -> TraceDataset {
    let mut cfg = SimConfig::emmy_small(seed);
    cfg.faults = FaultConfig::at_rate(rate);
    cfg.threads = threads;
    with_threads(threads, || simulate(cfg))
}

fn csv_bytes(d: &TraceDataset) -> (Vec<u8>, Vec<u8>) {
    let mut jobs = Vec::new();
    csv::write_jobs(&mut jobs, &d.jobs, &d.summaries).expect("jobs.csv");
    let mut system = Vec::new();
    csv::write_system(&mut system, &d.system_series).expect("system.csv");
    (jobs, system)
}

/// Round-trip guarantee at every required rate and policy: inject at
/// rate r, repair, and `validate()` passes again.
#[test]
fn round_trip_holds_at_all_required_rates() {
    for rate in RATES {
        let dirty = faulted(42, rate, 1);
        assert!(
            validate(&dirty).is_err(),
            "rate {rate}: injection should break at least one invariant"
        );
        for policy in [
            RepairPolicy::DropJob,
            RepairPolicy::HoldLast,
            RepairPolicy::Linear,
        ] {
            let mut repaired = dirty.clone();
            let quality = repair(&mut repaired, &RepairConfig::with_policy(policy));
            assert_eq!(
                quality.violations_after, 0,
                "rate {rate}, policy {policy}: repair left violations"
            );
            validate(&repaired).unwrap_or_else(|e| {
                panic!("rate {rate}, policy {policy}: repaired dataset invalid: {e}")
            });
            assert!(
                quality.rows_repaired() > 0 || quality.jobs_dropped > 0,
                "rate {rate}, policy {policy}: repair reported no work on dirty data"
            );
        }
    }
}

/// Faulted jobs.csv/system.csv are byte-identical at 1 and 4 threads.
#[test]
fn faulted_csv_exports_are_byte_identical_across_threads() {
    for rate in RATES {
        let (jobs_1, system_1) = csv_bytes(&faulted(7, rate, 1));
        let (jobs_4, system_4) = csv_bytes(&faulted(7, rate, 4));
        assert_eq!(jobs_1, jobs_4, "rate {rate}: jobs.csv differs at 4 threads");
        assert_eq!(
            system_1, system_4,
            "rate {rate}: system.csv differs at 4 threads"
        );
    }
}

/// The robustness experiment: BDT/KNN/FLDA still train and predict on
/// repaired dirty data, and accuracy degrades as the fault rate grows
/// (crashed jobs vanish, spike-hit summaries are clipped to the TDP).
#[test]
fn predictors_degrade_gracefully_with_fault_rate() {
    let cfg = PredictionConfig {
        n_splits: 2,
        ..Default::default()
    };
    let mape_at = |rate: f64| -> Vec<(String, f64)> {
        let mut d = faulted(3, rate, 0);
        let quality = repair(&mut d, &RepairConfig::with_policy(RepairPolicy::DropJob));
        assert_eq!(quality.violations_after, 0, "rate {rate}");
        let analysis = prediction::analyze(&d, &cfg).expect("prediction runs");
        assert_eq!(analysis.models.len(), 3, "BDT, KNN, FLDA");
        analysis
            .models
            .iter()
            .map(|m| (m.model.clone(), m.mape))
            .collect()
    };
    let clean = mape_at(0.0);
    let dirty = mape_at(0.20);
    for ((model, clean_mape), (_, dirty_mape)) in clean.iter().zip(&dirty) {
        assert!(
            clean_mape.is_finite() && dirty_mape.is_finite(),
            "{model}: non-finite MAPE"
        );
        // Dirty data must never *help*: allow a small tolerance for the
        // deterministic re-split over the surviving jobs.
        assert!(
            *dirty_mape > 0.8 * clean_mape,
            "{model}: MAPE improved under 20% faults ({clean_mape:.4} -> {dirty_mape:.4})"
        );
    }
    // At least one of the three models must measurably degrade.
    let degraded = clean
        .iter()
        .zip(&dirty)
        .any(|((_, c), (_, d))| *d > *c * 1.02);
    assert!(
        degraded,
        "no model degraded at 20% faults: clean {clean:?} vs dirty {dirty:?}"
    );
}
