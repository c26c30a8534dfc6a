//! The Discussion-section what-if: prediction-driven static power caps.
//!
//! For a sweep of cap margins, report how many jobs would ever hit their
//! cap (degradation-risk proxy) and how much provisioned power the
//! facility recovers versus worst-case TDP provisioning — including the
//! overprovisioning head-room ("more nodes for the same power budget").
//!
//! ```text
//! cargo run --release --example powercap_whatif
//! ```

use hpcpower::powercap;
use hpcpower::prediction::PredictionConfig;
use hpcpower_sim::{simulate, SimConfig};

fn main() {
    for cfg in [SimConfig::emmy_small(3), SimConfig::meggie_small(3)] {
        let dataset = simulate(cfg);
        let analysis = powercap::analyze(
            &dataset,
            &powercap::default_margins(),
            &PredictionConfig {
                n_splits: 3,
                ..Default::default()
            },
        )
        .expect("enough jobs");

        println!(
            "{} — {} jobs, node TDP {} W",
            dataset.system.name, analysis.jobs, dataset.system.node_tdp_w
        );
        println!("  margin   jobs ever above cap   provisioned power saved");
        for o in &analysis.outcomes {
            println!(
                "  +{:<5.0}%  {:>19.1}%  {:>22.1}%",
                o.margin * 100.0,
                o.violation_rate * 100.0,
                o.provisioned_saving * 100.0
            );
        }
        println!(
            "  at the paper's +15% margin the recovered budget hosts ~{} extra nodes\n",
            analysis.extra_nodes_at_15pct
        );
    }
}
