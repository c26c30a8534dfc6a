//! Overhead contract: with telemetry disabled (the default), every
//! instrumentation entry point must cost one relaxed atomic load and
//! an early return — close enough to free that instrumented hot loops
//! need no `cfg`-gating.
//!
//! This is a timing test, so the bound is deliberately generous (a
//! disabled call may cost up to 200x a `black_box` no-op before it
//! fails); it exists to catch *structural* regressions — someone adding
//! an allocation, lock, or clock read in front of the enabled check —
//! which show up as 1000x-plus ratios, not to benchmark.
//!
//! This file is its own test binary: nothing here (or in the harness)
//! enables the global registry, so the disabled fast path is what runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

// Route this binary's heap traffic through the profiling wrapper so the
// disabled-gate cost below measures the real deployment configuration.
#[global_allocator]
static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;

const ITERS: u64 = 200_000;
const TRIALS: usize = 7;
const MAX_RATIO: f64 = 200.0;

/// Best-of-`TRIALS` wall time of `ITERS` calls to `f` — the minimum is
/// the least noisy estimator on a shared machine.
fn best_time(mut f: impl FnMut(u64)) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        for i in 0..ITERS {
            f(i);
        }
        best = best.min(t0.elapsed());
    }
    best
}

fn per_op_ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9 / ITERS as f64
}

#[test]
fn disabled_instrumentation_is_nearly_free() {
    assert!(
        !hpcpower_obs::enabled(),
        "telemetry must be off by default for this test to measure the disabled path"
    );

    // Floor the baseline at 0.05 ns/op: a black_box no-op loop can be
    // reduced further than any real call ever will be, and a zero
    // denominator would make the ratio meaningless.
    let noop = per_op_ns(best_time(|i| {
        black_box(i);
    }))
    .max(0.05);
    let counter = per_op_ns(best_time(|i| {
        hpcpower_obs::counter_add("overhead.disabled.counter", black_box(i) & 1);
    }));
    let span = per_op_ns(best_time(|i| {
        let _g = hpcpower_obs::span!("overhead.disabled.span");
        black_box(i);
    }));
    let histogram = per_op_ns(best_time(|i| {
        hpcpower_obs::histogram_record("overhead.disabled.hist", black_box(i) as f64);
    }));

    eprintln!(
        "disabled overhead: noop {noop:.2} ns/op, counter {counter:.2}, \
         span {span:.2}, histogram {histogram:.2}"
    );
    for (what, cost) in [("counter_add", counter), ("span!", span), ("histogram_record", histogram)]
    {
        let ratio = cost / noop;
        assert!(
            ratio <= MAX_RATIO,
            "disabled {what} costs {cost:.2} ns/op = {ratio:.0}x a no-op \
             (bound {MAX_RATIO}x); did the fast path grow a lock/alloc/clock read?"
        );
    }

    // And the disabled calls must have recorded nothing.
    let snap = hpcpower_obs::snapshot();
    assert_eq!(snap.counter("overhead.disabled.counter"), None);
    assert!(snap.span("overhead.disabled.span").is_none());
    assert!(snap.histogram("overhead.disabled.hist").is_none());
}

/// The simulate kernel's own metrics ride the same disabled fast path:
/// with telemetry off, batch counters and the scratch-arena high-water
/// histogram must stay within the structural overhead bound and leave
/// no trace in the registry.
#[test]
fn disabled_kernel_metrics_cost_nothing() {
    assert!(
        !hpcpower_obs::enabled(),
        "telemetry must be off by default for this test to measure the disabled path"
    );

    let noop = per_op_ns(best_time(|i| {
        black_box(i);
    }))
    .max(0.05);
    let batch = per_op_ns(best_time(|i| {
        hpcpower_obs::counter_add("sim.kernel.batch_jobs", black_box(i) & 0xFF);
    }));
    let strides = per_op_ns(best_time(|i| {
        hpcpower_obs::counter_add("sim.kernel.rng_stride_fills", black_box(i) & 0xFF);
    }));
    let arena = per_op_ns(best_time(|i| {
        hpcpower_obs::histogram_record("sim.kernel.scratch_bytes", black_box(i) as f64);
    }));

    eprintln!(
        "disabled kernel metrics: noop {noop:.2} ns/op, batch_jobs {batch:.2}, \
         rng_stride_fills {strides:.2}, scratch_bytes {arena:.2}"
    );
    for (what, cost) in [
        ("sim.kernel.batch_jobs", batch),
        ("sim.kernel.rng_stride_fills", strides),
        ("sim.kernel.scratch_bytes", arena),
    ] {
        let ratio = cost / noop;
        assert!(
            ratio <= MAX_RATIO,
            "disabled {what} costs {cost:.2} ns/op = {ratio:.0}x a no-op \
             (bound {MAX_RATIO}x); did the fast path grow a lock/alloc/clock read?"
        );
    }

    let snap = hpcpower_obs::snapshot();
    assert_eq!(snap.counter("sim.kernel.batch_jobs"), None);
    assert_eq!(snap.counter("sim.kernel.rng_stride_fills"), None);
    assert!(snap.histogram("sim.kernel.scratch_bytes").is_none());
}

/// The allocation-profiling wrapper rides the same contract: with its
/// gate off (the default), every `alloc`/`dealloc` through
/// `ProfiledAllocator` must add one relaxed atomic load over the
/// system allocator — and must record nothing.
#[test]
fn disabled_alloc_profiling_is_nearly_free() {
    use std::alloc::{GlobalAlloc, Layout, System};

    assert!(
        !hpcpower_obs::alloc_profiling_enabled(),
        "allocation profiling must be off by default for this test to measure the disabled path"
    );

    let layout = Layout::from_size_align(256, 8).unwrap();
    // Baseline: the system allocator called directly, bypassing the
    // wrapper. An alloc/dealloc pair is far from a no-op, so the ratio
    // bound on top of it is comfortably structural.
    let direct = per_op_ns(best_time(|_| unsafe {
        let p = System.alloc(layout);
        black_box(p);
        System.dealloc(p, layout);
    }))
    .max(0.05);
    // The same pair through the installed wrapper (this binary's global
    // allocator), gate off.
    let wrapped = per_op_ns(best_time(|i| {
        let b = Box::new(black_box([i; 32]));
        black_box(&b);
    }));

    eprintln!("disabled alloc profiling: direct {direct:.2} ns/op, wrapped {wrapped:.2}");
    let ratio = wrapped / direct;
    assert!(
        ratio <= MAX_RATIO,
        "disabled ProfiledAllocator costs {wrapped:.2} ns/op = {ratio:.0}x a direct \
         system alloc/dealloc pair (bound {MAX_RATIO}x); did the fast path grow a \
         lock/slot lookup in front of the enabled check?"
    );

    // And with the gate off, the wrapper must have recorded nothing —
    // despite every allocation in this binary flowing through it.
    assert_eq!(hpcpower_obs::alloc::totals(), (0, 0));
    let snap = hpcpower_obs::alloc_snapshot();
    assert!(!snap.enabled);
    assert_eq!(snap.alloc_count, 0);
    assert_eq!(snap.peak_bytes, 0);
}
