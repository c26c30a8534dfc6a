//! Property-based tests over cross-crate invariants.

use hpcpower_ml::{DecisionTree, Knn, KnnConfig, Regressor, TreeConfig};
use hpcpower_sim::{schedule, JobRequest};
use hpcpower_stats::{Ecdf, Histogram, Lorenz, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduler never double-books a node and never starts a job
    /// before submission, for arbitrary workloads.
    #[test]
    fn scheduler_is_sound(
        raw in prop::collection::vec(
            (0u64..500, 1u32..12, 10u64..200, 5u64..200), 1..120
        ),
        nodes in 4u32..32,
    ) {
        let mut submit = 0;
        let requests: Vec<JobRequest> = raw
            .iter()
            .map(|&(gap, n, walltime, runtime)| {
                submit += gap % 20;
                JobRequest {
                    user: 0,
                    template: 0,
                    app: 0,
                    submit_min: submit,
                    nodes: n,
                    walltime_req_min: walltime.max(runtime),
                    runtime_min: runtime.min(walltime),
                }
            })
            .collect();
        let out = schedule(&requests, nodes);
        // Every request either runs or is rejected (too big).
        prop_assert_eq!(out.jobs.len() + out.rejected.len(), requests.len());
        for &r in &out.rejected {
            prop_assert!(requests[r].nodes > nodes);
        }
        // Sweep events to check node exclusivity.
        let mut events: Vec<(u64, i32, usize)> = Vec::new();
        for (k, j) in out.jobs.iter().enumerate() {
            prop_assert!(j.start_min >= j.request.submit_min);
            prop_assert_eq!(j.node_ids.len(), j.request.nodes as usize);
            events.push((j.start_min, 1, k));
            events.push((j.end_min, -1, k));
        }
        events.sort_by_key(|&(t, kind, _)| (t, kind));
        let mut in_use = std::collections::HashSet::new();
        for (_, kind, k) in events {
            for id in &out.jobs[k].node_ids {
                prop_assert!(*id < nodes);
                if kind == 1 {
                    prop_assert!(in_use.insert(*id), "node {} double-booked", id);
                } else {
                    prop_assert!(in_use.remove(id));
                }
            }
        }
    }

    /// Welford summaries agree with naive computation and merge cleanly.
    #[test]
    fn summary_matches_naive(values in prop::collection::vec(-1e4f64..1e4, 2..200)) {
        let s = Summary::from_slice(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance_population() - var).abs() < 1e-5 * (1.0 + var));
        // Merging any split reproduces the whole.
        let cut = values.len() / 2;
        let mut left = Summary::from_slice(&values[..cut]);
        left.merge(&Summary::from_slice(&values[cut..]));
        prop_assert!((left.mean() - s.mean()).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert_eq!(left.count(), s.count());
    }

    /// ECDFs are monotone, bounded, and hit 1 at the maximum.
    #[test]
    fn ecdf_is_a_cdf(values in prop::collection::vec(-1e3f64..1e3, 1..300)) {
        let e = Ecdf::new(&values).unwrap();
        let mut last = 0.0;
        let lo = e.min() - 1.0;
        let hi = e.max() + 1.0;
        for i in 0..=50 {
            let x = lo + (hi - lo) * i as f64 / 50.0;
            let f = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        prop_assert_eq!(e.eval(e.max()), 1.0);
        prop_assert_eq!(e.eval(lo), 0.0);
    }

    /// Histogram density integrates to the in-range mass.
    #[test]
    fn histogram_mass(values in prop::collection::vec(0f64..100.0, 1..300)) {
        let mut h = Histogram::new(0.0, 100.0001, 17).unwrap();
        for &v in &values {
            h.push(v);
        }
        let mass: f64 = h.density().iter().map(|d| d * h.bin_width()).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {}", mass);
    }

    /// Lorenz top-share is monotone in the fraction, bounded by 1, and
    /// the top share of everything is everything.
    #[test]
    fn lorenz_properties(values in prop::collection::vec(0.01f64..1e3, 1..200)) {
        let l = Lorenz::new(&values).unwrap();
        let mut last = 0.0;
        for i in 0..=20 {
            let share = l.top_share(i as f64 / 20.0);
            prop_assert!(share >= last - 1e-12);
            prop_assert!(share <= 1.0 + 1e-12);
            last = share;
        }
        prop_assert!((l.top_share(1.0) - 1.0).abs() < 1e-9);
        let g = l.gini();
        prop_assert!((0.0..1.0).contains(&g));
    }

    /// Tree and KNN predictions always stay within the training target
    /// range (they are averages of training targets).
    #[test]
    fn models_predict_within_target_hull(
        rows in prop::collection::vec(
            (0u32..6, 1u32..32, 1u64..24, 20f64..200.0), 10..120
        ),
        query in (0u32..10, 1u32..64, 1u64..48),
    ) {
        let mut data = hpcpower_ml::data::Dataset::default();
        for &(u, n, w, t) in &rows {
            data.push(u, n as f64, (w * 60) as f64, t);
        }
        let lo = data.targets.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.targets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (qu, qn, qw) = query;
        let tree = DecisionTree::fit(&data, TreeConfig::default()).unwrap();
        let p = tree.predict(qu, qn as f64, (qw * 60) as f64);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "tree {} outside [{}, {}]", p, lo, hi);
        let knn = Knn::fit(&data, KnnConfig { k: 3, ..Default::default() }).unwrap();
        let p = knn.predict(qu, qn as f64, (qw * 60) as f64);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "knn {} outside [{}, {}]", p, lo, hi);
    }

    /// Power samples stay inside [idle, TDP] for arbitrary job params.
    #[test]
    fn power_samples_physical(
        base in 10f64..400.0,
        imb in 0f64..0.2,
        spike_frac in 0f64..0.5,
        spike_amp in 0f64..0.4,
        dip_frac in 0f64..0.5,
        dip_amp in 0f64..0.5,
        key in any::<u64>(),
    ) {
        use hpcpower_sim::power::{JobPowerParams, PowerModel, PowerModelConfig};
        let cfg = PowerModelConfig::default();
        let model = PowerModel::new(cfg, 1);
        let params = JobPowerParams {
            key,
            base_w: base,
            imbalance_sigma: imb,
            spike_frac,
            spike_amp,
            dip_frac,
            dip_amp,
        };
        for rank in 0..4u32 {
            for t in (0..200u64).step_by(7) {
                let p = model.sample(&params, rank * 31 % 64, rank, t);
                prop_assert!(p >= cfg.idle_w && p <= cfg.tdp_w, "sample {}", p);
            }
        }
    }
}
