//! Allocation profiling must only *observe*: with the profiled global
//! allocator installed and every gate on (registry, timeline, alloc),
//! the simulator emits byte-identical datasets at 1 and 4 threads.
//! This is the strongest form of the non-invasiveness contract — the
//! wrapper sits under literally every heap allocation the kernel makes.
//!
//! One test function: the gates and counters are process-global.

use hpcpower_sim::{simulate, SimConfig};

#[global_allocator]
static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;

fn dataset_json(threads: usize) -> String {
    let mut cfg = SimConfig::emmy_small(11);
    cfg.threads = threads;
    serde_json::to_string(&simulate(cfg)).expect("serializes")
}

#[test]
fn alloc_profiling_does_not_change_dataset_bytes() {
    // Baseline: everything off (the default).
    let baseline = dataset_json(1);

    hpcpower_obs::enable();
    hpcpower_obs::enable_timeline();
    hpcpower_obs::enable_alloc_profiling();
    for threads in [1, 4] {
        assert_eq!(
            baseline,
            dataset_json(threads),
            "allocation profiling changed dataset bytes at {threads} threads"
        );
    }

    // The profiler actually saw the kernel's traffic...
    let alloc = hpcpower_obs::alloc_snapshot();
    assert!(alloc.alloc_count > 0, "simulate allocates; the gate was on");
    assert!(alloc.alloc_bytes > 0);

    // ...and its high-water mark is consistent with the kernel's own
    // scratch-arena accounting: the process-wide heap peak can never be
    // below the largest per-worker arena the simulator reported.
    let snap = hpcpower_obs::snapshot();
    if let Some(h) = snap.histogram("sim.kernel.scratch_bytes") {
        assert!(
            alloc.peak_bytes as f64 >= h.max,
            "heap peak {} below the largest reported scratch arena {}",
            alloc.peak_bytes,
            h.max
        );
    }

    // Span-level attribution reached the simulate call tree: some slot
    // beyond root/overflow carries bytes.
    assert!(
        alloc.slots.iter().skip(2).any(|s| s.alloc_bytes > 0),
        "no span slot attributed any bytes: {:?}",
        alloc
            .slots
            .iter()
            .map(|s| (&s.name, s.alloc_bytes))
            .collect::<Vec<_>>()
    );
}
