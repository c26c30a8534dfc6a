//! Apriori job-power prediction, end to end: train the three models of
//! the paper on a simulated trace, compare them, then query the best one
//! interactively-style for a few hypothetical submissions.
//!
//! ```text
//! cargo run --release --example predict_power
//! ```

use hpcpower::prediction::{self, PredictionConfig};
use hpcpower_ml::{DecisionTree, Regressor, TreeConfig};
use hpcpower_sim::{simulate, SimConfig};

fn main() {
    let dataset = simulate(SimConfig::emmy_small(7));
    println!(
        "trace: {} jobs from {} users\n",
        dataset.len(),
        dataset.user_count
    );

    // The paper's protocol: 10 random 80/20 splits, validation users
    // always covered in training.
    let cfg = PredictionConfig::default();
    let analysis = prediction::analyze(&dataset, &cfg).expect("enough jobs");
    println!("model  MAPE   <5% err  <10% err   (Fig. 14)");
    for m in &analysis.models {
        println!(
            "{:<5} {:>5.1}%  {:>6.1}%  {:>7.1}%",
            m.model,
            m.mape * 100.0,
            m.frac_below_5pct * 100.0,
            m.frac_below_10pct * 100.0
        );
    }
    println!(
        "\nBDT per-user quality: {:.0}% of users see <5% mean error (Fig. 15)\n",
        analysis.bdt_user_frac_below_5pct * 100.0
    );

    // Feature ablation: what does each feature buy?
    println!("feature ablation (BDT):");
    for row in prediction::feature_ablation(&dataset, &cfg).expect("enough jobs") {
        println!(
            "  {:<20} MAPE {:>5.1}%  <10% err {:>5.1}%",
            row.features.name(),
            row.mape * 100.0,
            row.frac_below_10pct * 100.0
        );
    }

    // Train a production model on everything and query it like a
    // scheduler plugin would at submission time.
    let data = prediction::build_ml_dataset(&dataset);
    let model = DecisionTree::fit(&data, TreeConfig::default()).expect("trainable");
    println!("\nsubmission-time queries (user, nodes, walltime -> predicted W/node):");
    for (user, nodes, walltime_h) in [(0u32, 4.0, 6.0), (0, 16.0, 12.0), (5, 1.0, 2.0)] {
        let w = model.predict(user, nodes, walltime_h * 60.0);
        println!(
            "  user-{user:<3} {nodes:>4.0} nodes  {walltime_h:>4.0} h  ->  {w:>6.1} W/node \
             (cap at +15%: {:.0} W)",
            w * 1.15
        );
    }
}
