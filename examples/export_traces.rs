//! Generate and export a dual-cluster power trace dataset in the layout
//! of the paper's Zenodo release: per-system `jobs.csv` (accounting +
//! power summary), `system.csv` (per-minute utilization/power), and a
//! full `dataset.json` including the instrumented per-node series.
//!
//! ```text
//! cargo run --release --example export_traces -- /tmp/hpc-power-traces
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use hpcpower_sim::{simulate, SimConfig};
use hpcpower_trace::{csv, json, validate};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "hpc-power-traces".to_string())
        .into();

    for cfg in [SimConfig::emmy_small(2020), SimConfig::meggie_small(2020)] {
        let name = cfg.system.name.clone();
        eprintln!("simulating {name}...");
        let dataset = simulate(cfg);
        validate::validate(&dataset)?;

        let dir = out_dir.join(name.to_lowercase());
        std::fs::create_dir_all(&dir)?;

        {
            // Scoped so the buffered writers flush before the round-trip
            // read below.
            let mut jobs = BufWriter::new(File::create(dir.join("jobs.csv"))?);
            csv::write_jobs(&mut jobs, &dataset.jobs, &dataset.summaries)?;
            let mut system = BufWriter::new(File::create(dir.join("system.csv"))?);
            csv::write_system(&mut system, &dataset.system_series)?;
            json::save_dataset(&dir.join("dataset.json"), &dataset)?;
        }

        eprintln!(
            "  {}: {} jobs, {} system samples, {} instrumented series -> {}",
            name,
            dataset.len(),
            dataset.system_series.len(),
            dataset.instrumented.len(),
            dir.display()
        );

        // Round-trip check: what we wrote is what a consumer reads.
        let reread = json::load_dataset(&dir.join("dataset.json"))?;
        assert_eq!(
            reread.jobs, dataset.jobs,
            "JSON round trip must be lossless"
        );
        let (jobs2, summaries2) =
            csv::read_jobs(std::io::BufReader::new(File::open(dir.join("jobs.csv"))?))?;
        assert_eq!(jobs2.len(), dataset.jobs.len());
        assert_eq!(summaries2.len(), dataset.summaries.len());
    }
    println!("traces written to {}", out_dir.display());
    Ok(())
}
