//! Telemetry non-invasiveness: turning the global registry and the span
//! timeline on must not change the simulator's dataset bytes.
//!
//! This test lives in its own test binary because the registry is
//! process-global. Any other test in the same binary that runs
//! `simulate()` concurrently would add `simulate` spans to it and break
//! the span-count assertion (`alloc_determinism.rs` relies on the same
//! per-process isolation).

use hpcpower_sim::{simulate, SimConfig};

fn dataset_json(threads: usize) -> String {
    let mut cfg = SimConfig::emmy_small(11);
    cfg.threads = threads;
    let dataset = simulate(cfg);
    serde_json::to_string(&dataset).expect("serializes")
}

/// Observability must only *observe*: with telemetry — including the
/// span event timeline — enabled, the simulator emits byte-identical
/// datasets at any thread count, while the registry fills with nonzero
/// pipeline measurements and the timeline with span events.
///
/// The baseline runs before `enable()`, so exactly two `simulate` spans
/// land in the registry.
#[test]
fn telemetry_does_not_change_dataset_bytes() {
    let baseline = dataset_json(1);
    hpcpower_obs::enable();
    hpcpower_obs::enable_timeline();
    for threads in [1, 4] {
        assert_eq!(
            baseline,
            dataset_json(threads),
            "telemetry changed dataset bytes at {threads} threads"
        );
    }
    let timeline = hpcpower_obs::timeline_snapshot();
    assert!(
        !timeline.events.is_empty(),
        "timeline must have recorded span events"
    );
    let snap = hpcpower_obs::snapshot();
    let sim_span = snap.span("simulate").expect("simulate span recorded");
    assert!(
        sim_span.total_ns > 0,
        "simulate span must have nonzero time"
    );
    assert_eq!(sim_span.count, 2, "one simulate span per enabled run");
    for stage in [
        "simulate.population",
        "simulate.arrivals",
        "simulate.schedule",
        "simulate.params",
        "simulate.monitor",
    ] {
        let s = snap
            .span(stage)
            .unwrap_or_else(|| panic!("missing span {stage}"));
        assert_eq!(s.parent.as_deref(), Some("simulate"), "{stage} parent");
    }
    assert!(snap.counter("sim.monitor.samples").unwrap_or(0) > 0);
    assert!(snap.counter("sim.jobs.placed").unwrap_or(0) > 0);
    assert!(
        snap.counter("sim.sched.backfill_hits").is_some(),
        "backfill counter must be present even if zero"
    );
    let depth = snap
        .histogram("sim.sched.queue_depth")
        .expect("queue-depth histogram");
    assert!(depth.count > 0);
    let wait = snap
        .histogram("sim.sched.wait_min")
        .expect("wait-time histogram");
    assert!(wait.count > 0, "every placed job records a wait time");
    assert!(wait.p99 >= wait.p50, "wait quantiles are ordered");
}
