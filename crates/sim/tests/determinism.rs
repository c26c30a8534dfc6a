//! Thread-count determinism: the simulator must produce byte-identical
//! datasets no matter how many workers materialize the traces.
//!
//! The guarantees under test (see DESIGN.md, "Parallelism & determinism"):
//! per-job power parameters are a pure function of (seed, user, request
//! index), the monitor folds fixed-size batches in job order, and the
//! parallel map preserves input order.

use hpcpower_sim::{simulate, FaultConfig, SimConfig};

fn dataset_json(threads: usize) -> String {
    let mut cfg = SimConfig::emmy_small(11);
    cfg.threads = threads;
    let dataset = simulate(cfg);
    serde_json::to_string(&dataset).expect("serializes")
}

#[test]
fn simulate_is_byte_identical_across_thread_counts() {
    let serial = dataset_json(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            dataset_json(threads),
            "simulate() output changed with {threads} threads"
        );
    }
}

/// The full determinism matrix the columnar kernel must uphold:
/// thread counts {1, 2, 4} × fault injection {off, 5%} × two seeds all
/// serialize to the same bytes as the single-threaded run of the same
/// (seed, faults) cell. Faults are the adversarial case — they mutate
/// instrumented series after the kernel runs, so any scratch-arena
/// reuse bug that leaks state between jobs shows up here first.
#[test]
fn simulate_matrix_threads_by_faults_by_seed_is_byte_identical() {
    for seed in [11u64, 4242] {
        for fault_rate in [0.0, 0.05] {
            let cell = |threads: usize| {
                let mut cfg = SimConfig::emmy_small(seed);
                cfg.threads = threads;
                if fault_rate > 0.0 {
                    cfg.faults = FaultConfig::at_rate(fault_rate);
                }
                serde_json::to_string(&simulate(cfg)).expect("serializes")
            };
            let serial = cell(1);
            for threads in [2, 4] {
                assert_eq!(
                    serial,
                    cell(threads),
                    "seed {seed}, faults {fault_rate}: output changed at {threads} threads"
                );
            }
        }
    }
}
