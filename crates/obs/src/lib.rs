//! # hpcpower-obs
//!
//! Observability substrate for the HPC power suite, built from scratch
//! (the workspace is offline, so no `tracing`/`metrics` dependency).
//! Everything here inspects a run after the fact: the CLI writes out
//! what was collected when the command ends.
//!
//! - **Spans** — [`span!`] opens an RAII guard that times a region of
//!   code and folds `(count, total, min, max)` plus a log-bucketed
//!   duration histogram per span name into the global registry on drop.
//!   Spans nest (a thread-local stack records the parent) and aggregate
//!   safely across rayon workers: any thread may open any span at any
//!   time.
//! - **Metrics registry** — monotonic [counters](Registry::counter_add),
//!   [gauges](Registry::gauge_set), and log-bucketed quantile
//!   [histograms](Registry::histogram_record) (HDR-style, ~2
//!   significant digits; see [`Histogram`] for the documented
//!   relative-error bound) whose exact moment statistics ride on the
//!   [`hpcpower_stats`] Welford [`Summary`] accumulator.
//! - **Timeline** — an opt-in bounded, lock-sharded ring buffer of
//!   individual span begin/end events ([`timeline`]), exportable as
//!   Chrome trace-event JSON ([`export::chrome_trace`]) for Perfetto /
//!   `chrome://tracing`.
//! - **Profiler** — [`ProfileGraph`] replays the timeline into a span
//!   call tree (folded stacks, flamegraph SVG, speedscope JSON), and the
//!   opt-in [`ProfiledAllocator`] attributes heap traffic to the
//!   innermost open span ([`alloc`]).
//! - **Sinks** — a [`Snapshot`] of the registry renders as a
//!   human-readable text table, as JSON-lines (one metric per line), as
//!   a single JSON document for `--metrics-out` files, or as Prometheus
//!   text exposition v0.0.4 ([`export::prometheus`]); the format is
//!   selected at runtime ([`LogFormat`], [`MetricsFormat`]).
//! - **Supervision helpers** — the [`watchdog`] heartbeat behind
//!   `--stage-timeout`, and the bounded [`retry`] loop the artifact
//!   publisher uses.
//!
//! ## Overhead contract
//!
//! Telemetry is **off by default** and off-cheap: every entry point
//! checks one relaxed atomic load and returns immediately when
//! disabled — no locks, no allocation, no clock reads (asserted by the
//! timing-ratio test in `tests/overhead.rs`). There are three gates:
//! the registry ([`enable`]), the timeline on top of it (span events are
//! only recorded when an exporter asked for them via
//! [`enable_timeline`]), and allocation attribution
//! ([`enable_alloc_profiling`]). When enabled, instrumentation only
//! *observes* (clock reads, counter folds); it never participates in
//! pipeline computation, so report and dataset bytes are identical with
//! observability on or off, at any thread count.
//! `crates/sim/tests/determinism.rs` and
//! `crates/core/tests/report_determinism.rs` prove the contract.
//!
//! ## Usage
//!
//! ```
//! hpcpower_obs::enable();
//! {
//!     let _span = hpcpower_obs::span!("demo.stage");
//!     hpcpower_obs::counter_add("demo.items", 3);
//! }
//! let snap = hpcpower_obs::snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert!(snap.span("demo.stage").is_some());
//! hpcpower_obs::disable();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod export;
pub mod profile;
pub mod registry;
pub mod retry;
pub mod sink;
pub mod snapshot;
pub mod span;
pub mod timeline;
pub mod watchdog;

use std::sync::OnceLock;

use hpcpower_stats::Summary;

pub use alloc::{AllocSnapshot, ProfiledAllocator, SlotSnapshot};
pub use profile::{
    render_profile, FlatEntry, FlatProfile, ProfileFormat, ProfileGraph, ProfileNode,
};
pub use registry::{Histogram, Registry, SUBBUCKETS_PER_OCTAVE};
pub use retry::{is_transient, retry_io, RetryPolicy};
pub use sink::{render, render_metrics, LogFormat, MetricsFormat};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanStats};
pub use span::SpanGuard;
pub use timeline::{Timeline, TimelineEvent, TimelineSnapshot};

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumentation point reports to.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether telemetry collection is currently enabled (default: off).
#[inline]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Turns telemetry collection on.
pub fn enable() {
    global().set_enabled(true);
}

/// Turns telemetry collection off. Metrics recorded so far are kept
/// until [`reset`].
pub fn disable() {
    global().set_enabled(false);
}

/// Turns timeline event recording on (see [`timeline`] for ring sizing
/// and drop semantics). Call [`enable`] as well: the timeline only sees
/// spans that are live in the first place.
pub fn enable_timeline() {
    timeline::global_timeline().set_enabled(true);
}

/// Turns timeline event recording off. Events recorded so far are kept
/// until [`reset`].
pub fn disable_timeline() {
    timeline::global_timeline().set_enabled(false);
}

/// Takes a sorted copy of the global timeline's events plus the
/// ring-wrap drop count.
pub fn timeline_snapshot() -> TimelineSnapshot {
    timeline::global_timeline().snapshot()
}

/// Whether the installed [`ProfiledAllocator`] is attributing
/// allocation traffic (default: off). Without a `#[global_allocator]`
/// install the gate is inert either way.
#[inline]
pub fn alloc_profiling_enabled() -> bool {
    alloc::is_enabled()
}

/// Turns allocation profiling on (see [`alloc`] for the attribution
/// model). Only has an observable effect in binaries that installed
/// [`ProfiledAllocator`] as the `#[global_allocator]`.
pub fn enable_alloc_profiling() {
    alloc::set_enabled(true);
}

/// Turns allocation profiling off. Stats recorded so far are kept
/// until [`reset`].
pub fn disable_alloc_profiling() {
    alloc::set_enabled(false);
}

/// Takes a consistent copy of the allocation-profiling totals and
/// per-call-path slot stats.
pub fn alloc_snapshot() -> AllocSnapshot {
    alloc::snapshot()
}

/// Clears every counter, gauge, histogram, and span aggregate, the
/// recorded timeline events, and the allocation-profiling stats.
pub fn reset() {
    global().reset();
    timeline::global_timeline().reset();
    alloc::reset();
}

/// Takes a deterministic (name-sorted) snapshot of the registry.
///
/// While allocation profiling is on, an enabled registry's snapshot
/// also carries the process-wide `obs.alloc.*` totals.
pub fn snapshot() -> Snapshot {
    let mut snap = global().snapshot();
    if global().is_enabled() && alloc::is_enabled() {
        let a = alloc::snapshot();
        snap.set_counter("obs.alloc.allocations", a.alloc_count);
        snap.set_counter("obs.alloc.allocated_bytes", a.alloc_bytes);
        snap.set_counter("obs.alloc.deallocations", a.dealloc_count);
        snap.set_counter("obs.alloc.freed_bytes", a.dealloc_bytes);
        snap.set_gauge("obs.alloc.current_bytes", a.current_bytes as f64);
        snap.set_gauge("obs.alloc.peak_bytes", a.peak_bytes as f64);
    }
    snap
}

/// Adds `delta` to the monotonic counter `name` (no-op when disabled).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    global().counter_add(name, delta);
}

/// Sets the gauge `name` to `value` (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    global().gauge_set(name, value);
}

/// Records `value` into the log-bucketed histogram `name` (no-op when
/// disabled).
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    global().histogram_record(name, value);
}

/// Records many values into the histogram `name` under one lock
/// (no-op when disabled; the iterator is not consumed in that case).
#[inline]
pub fn histogram_record_many(name: &str, values: impl IntoIterator<Item = f64>) {
    global().histogram_record_many(name, values);
}

/// Runs `f` inside a span named `name` and returns its result.
///
/// Equivalent to opening [`span!`] for the duration of the closure;
/// when telemetry is disabled the only cost is the inert guard.
#[inline]
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _guard = SpanGuard::enter(name);
    f()
}

/// Opens an RAII span guard: `let _span = hpcpower_obs::span!("stage");`.
///
/// The region from the macro to the end of the guard's scope is timed
/// and aggregated under the given name. Spans opened while another span
/// is active *on the same thread* record it as their parent.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// Builds a [`Summary`] over the values of an iterator — convenience
/// for instrumentation sites that want moment statistics of a derived
/// quantity without collecting it.
pub fn summarize(values: impl IntoIterator<Item = f64>) -> Summary {
    let mut s = Summary::new();
    for v in values {
        s.push(v);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global-API surface is covered by one test because the
    /// registry is process-wide state shared with any concurrently
    /// running test; instance-level behaviour is tested per module.
    #[test]
    fn global_api_end_to_end() {
        enable();
        counter_add("test.global.counter", 2);
        counter_add("test.global.counter", 3);
        gauge_set("test.global.gauge", 1.5);
        histogram_record("test.global.hist", 0.25);
        {
            let _outer = span!("test.global.outer");
            let _inner = span!("test.global.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.global.counter"), Some(5));
        assert_eq!(snap.gauge("test.global.gauge"), Some(1.5));
        assert_eq!(snap.histogram("test.global.hist").unwrap().p50, 0.25);
        let inner = snap.span("test.global.inner").expect("inner span recorded");
        assert!(inner.total_ns > 0);
        assert_eq!(inner.parent.as_deref(), Some("test.global.outer"));
        assert!(snap.span("test.global.outer").unwrap().total_ns >= inner.total_ns);
        assert!(inner.p99_ns >= inner.p50_ns, "quantiles are ordered");
        disable();
    }

    #[test]
    fn time_returns_closure_result() {
        // Must hold regardless of the global enabled state.
        assert_eq!(time("test.time.noop", || 41 + 1), 42);
    }
}
