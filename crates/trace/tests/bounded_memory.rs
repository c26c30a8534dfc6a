//! Loading and publishing a dataset hold a window of `dataset.json`,
//! never the whole file: on a trace whose `dataset.json` is at least 16
//! decoder windows, a prediction load and an atomic publish each peak
//! below half the file's size.
//!
//! A test binary of its own: it installs the allocation profiler, whose
//! counters are global to the process.

use hpcpower_obs::alloc;
use hpcpower_sim::{ClusterSim, SimConfig};
use hpcpower_trace::json::{self, Sections};
use hpcpower_trace::recover::{atomic_write_with, RealFs};

#[global_allocator]
static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;

/// What `f` returns, and how far the live heap rose above its level at
/// the start of `f` at its highest.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    alloc::reset_peak();
    let base = alloc::peak_bytes();
    let out = f();
    (out, alloc::peak_bytes() - base)
}

#[test]
fn loads_and_publishes_peak_below_half_the_file() {
    // On from the start, so that every block freed below was counted
    // when it was allocated.
    hpcpower_obs::enable_alloc_profiling();
    let dataset = ClusterSim::new(SimConfig::emmy(3).scaled_down(48, 14 * 1440, 24))
        .run()
        .dataset;
    let dir = std::env::temp_dir().join(format!("hpcpower-bounded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dataset.json");

    let (published, publish_peak) = peak_during(|| {
        atomic_write_with(&RealFs, &path, &mut |w| {
            Ok(json::write_dataset(w, &dataset)?)
        })
    });
    published.unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    assert!(
        len >= 16 * serde::json::READ_WINDOW as u64,
        "dataset.json is {len} bytes"
    );
    assert!(
        publish_peak < len / 2,
        "publishing {len} bytes peaked at {publish_peak} bytes"
    );

    let (loaded, load_peak) = peak_during(|| json::load_sections(&path, Sections::Prediction));
    assert_eq!(loaded.unwrap().jobs, dataset.jobs);
    assert!(
        load_peak < len / 2,
        "loading {len} bytes peaked at {load_peak} bytes"
    );
    eprintln!("dataset.json {len} B: publish peak {publish_peak} B, load peak {load_peak} B");
    std::fs::remove_dir_all(&dir).unwrap();
}
