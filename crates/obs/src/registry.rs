//! The metrics registry: counters, gauges, histograms, span aggregates.
//!
//! One [`Registry`] instance holds all telemetry of a process (the
//! global one lives behind [`crate::global`]). Every mutating entry
//! point first checks the `enabled` flag with a relaxed atomic load and
//! returns immediately when telemetry is off, so a disabled registry
//! costs one predictable branch per call site.
//!
//! Metrics are keyed by dotted names (`"sim.monitor.samples"`). Maps
//! are `BTreeMap`s so snapshots iterate in a deterministic order.
//!
//! Histograms are **log-bucketed quantile histograms** (HDR-style):
//! see [`Histogram`] for the bucket layout and the documented
//! relative-error bound on the quantile estimates. Span aggregates
//! carry one such histogram of their observed durations, so snapshots
//! can answer "what is p99 render latency?" and not just "what was the
//! total".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use hpcpower_stats::Summary;

use crate::snapshot::{HistogramSnapshot, Snapshot, SpanStats};

/// Sub-buckets per power of two in [`Histogram`]'s log-bucketed
/// layout. 128 sub-buckets give adjacent bucket bounds a ratio of
/// 2^(1/128) ≈ 1.0054 — roughly two significant decimal digits.
pub const SUBBUCKETS_PER_OCTAVE: u32 = 128;

/// A log-bucketed quantile histogram with Welford moment statistics.
///
/// Positive values land in sparse buckets indexed by
/// `floor(log2(v) * 128)`: bucket `i` covers `[2^(i/128), 2^((i+1)/128))`,
/// so adjacent bucket bounds differ by a factor of 2^(1/128) ≈ 0.54%.
/// Values ≤ 0 are counted in a dedicated zero bucket (telemetry values
/// are durations and counts, so this is the empty/degenerate case, not
/// a precision loss). NaNs are ignored.
///
/// ## Quantile error bound
///
/// [`Histogram::quantile`] returns the geometric midpoint of the bucket
/// containing the nearest-rank sample, clamped to the exact observed
/// `[min, max]`. For positive samples the estimate therefore differs
/// from the exact nearest-rank sample quantile by a relative factor of
/// at most **2^(1/256) − 1 ≈ 0.28%**, independent of the data's range
/// or shape. The attached [`Summary`] provides exact
/// mean/min/max/std-dev regardless of bucket resolution.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Sparse bucket counts keyed by `floor(log2(v) * 128)`.
    buckets: BTreeMap<i32, u64>,
    /// Count of values ≤ 0.
    zero_count: u64,
    /// Exact running sum of every recorded value.
    sum: f64,
    summary: Summary,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sparse bucket index of a positive value.
    fn index(value: f64) -> i32 {
        (value.log2() * SUBBUCKETS_PER_OCTAVE as f64).floor() as i32
    }

    /// Exclusive upper bound of bucket `i`.
    pub fn bucket_upper_bound(i: i32) -> f64 {
        ((i + 1) as f64 / SUBBUCKETS_PER_OCTAVE as f64).exp2()
    }

    /// Geometric midpoint of bucket `i` — the representative value the
    /// quantile estimator returns for samples in this bucket.
    fn representative(i: i32) -> f64 {
        ((i as f64 + 0.5) / SUBBUCKETS_PER_OCTAVE as f64).exp2()
    }

    /// Records one value (NaNs are ignored).
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        if value > 0.0 {
            *self.buckets.entry(Self::index(value)).or_insert(0) += 1;
        } else {
            self.zero_count += 1;
        }
        self.sum += value;
        self.summary.push(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimated quantile `q in [0, 1]` (nearest-rank; see the type
    /// docs for the relative-error bound). Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let clamp = |v: f64| v.clamp(self.summary.min(), self.summary.max());
        // The extreme quantiles are tracked exactly by the Welford
        // summary, so don't pay the bucket rounding error for them.
        if q <= 0.0 {
            return self.summary.min();
        }
        if q >= 1.0 {
            return self.summary.max();
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = self.zero_count;
        if rank <= cum {
            return clamp(0.0);
        }
        for (&i, &c) in &self.buckets {
            cum += c;
            if rank <= cum {
                return clamp(Self::representative(i));
            }
        }
        self.summary.max()
    }

    /// `(upper_bound, count)` per non-empty bucket in bound order; the
    /// zero bucket (values ≤ 0) reports bound 0.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        if self.zero_count > 0 {
            out.push((0.0, self.zero_count));
        }
        out.extend(
            self.buckets
                .iter()
                .map(|(&i, &c)| (Self::bucket_upper_bound(i), c)),
        );
        out
    }

    /// The exact moment statistics of everything recorded.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    pub(crate) fn to_snapshot(&self) -> HistogramSnapshot {
        let empty = self.summary.is_empty();
        HistogramSnapshot {
            count: self.summary.count(),
            sum: self.sum,
            mean: if empty { 0.0 } else { self.summary.mean() },
            min: if empty { 0.0 } else { self.summary.min() },
            max: if empty { 0.0 } else { self.summary.max() },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self.buckets(),
        }
    }
}

#[derive(Debug, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Wall time spent inside child spans — folded in by the children
    /// as they complete, so `total_ns − child_ns` is self time.
    child_ns: u64,
    parent: Option<String>,
    /// Distribution of observed durations (nanoseconds).
    durations: Histogram,
}

/// A telemetry registry: all counters, gauges, histograms, and span
/// aggregates of one scope (usually the whole process).
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Telemetry must never take the process down: a panic while a lock
    // was held leaves valid (if partially updated) aggregates behind.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// Creates a registry with collection disabled.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether collection is enabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables collection.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut counters = lock(&self.counters);
        match counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        lock(&self.gauges).insert(name.to_string(), value);
    }

    /// Records `value` into the log-bucketed histogram `name`.
    pub fn histogram_record(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut hists = lock(&self.histograms);
        hists.entry(name.to_string()).or_default().record(value);
    }

    /// Records many values into histogram `name` under one lock.
    pub fn histogram_record_many(&self, name: &str, values: impl IntoIterator<Item = f64>) {
        if !self.is_enabled() {
            return;
        }
        let mut hists = lock(&self.histograms);
        let h = hists.entry(name.to_string()).or_default();
        for v in values {
            h.record(v);
        }
    }

    /// Folds one completed span observation into the per-name
    /// aggregate. Called by [`crate::span::SpanGuard`] on drop; public
    /// so alternative span sources (and tests) can feed a registry
    /// directly.
    pub fn record_span(&self, name: &str, parent: Option<&str>, nanos: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut spans = lock(&self.spans);
        let agg = spans.entry(name.to_string()).or_default();
        if agg.count == 0 {
            agg.min_ns = nanos;
            agg.max_ns = nanos;
            // The parent observed first wins; span trees in this
            // codebase are static, so first == always in practice.
            agg.parent = parent.map(str::to_string);
        } else {
            agg.min_ns = agg.min_ns.min(nanos);
            agg.max_ns = agg.max_ns.max(nanos);
        }
        agg.count += 1;
        agg.total_ns += nanos;
        agg.durations.record(nanos as f64);
        // Credit this duration to the parent's child time so the
        // parent's self time excludes it. The parent entry may not
        // exist yet (children complete first); `or_default` is safe
        // because the `count == 0` branch above still initializes
        // min/max/parent when the parent's own first observation lands.
        if let Some(parent) = parent {
            spans.entry(parent.to_string()).or_default().child_ns += nanos;
        }
    }

    /// Clears every metric (the enabled flag is left as is).
    pub fn reset(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.histograms).clear();
        lock(&self.spans).clear();
    }

    /// Takes a deterministic, name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, h)| (k.clone(), h.to_snapshot()))
                .collect(),
            spans: lock(&self.spans)
                .iter()
                // An entry with no completed observation exists only to
                // hold child time for a still-open parent; it has no
                // min/max/quantiles to report yet.
                .filter(|(_, a)| a.count > 0)
                .map(|(k, a)| {
                    (
                        k.clone(),
                        SpanStats {
                            count: a.count,
                            total_ns: a.total_ns,
                            self_ns: a.total_ns.saturating_sub(a.child_ns),
                            min_ns: a.min_ns,
                            max_ns: a.max_ns,
                            p50_ns: a.durations.quantile(0.50),
                            p90_ns: a.durations.quantile(0.90),
                            p99_ns: a.durations.quantile(0.99),
                            parent: a.parent.clone(),
                        },
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.counter_add("c", 1);
        r.gauge_set("g", 2.0);
        r.histogram_record("h", 3.0);
        r.record_span("s", None, 100);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = Registry::new();
        r.set_enabled(true);
        r.counter_add("jobs", 10);
        r.counter_add("jobs", 5);
        r.gauge_set("depth", 3.0);
        r.gauge_set("depth", 7.0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("jobs"), Some(15));
        assert_eq!(snap.gauge("depth"), Some(7.0));
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new();
        for v in [0.5, 2.0, 3.0, 50.0, 1e6] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 1_000_055.5).abs() < 1e-6);
        assert!((h.summary().min() - 0.5).abs() < 1e-12);
        assert!((h.summary().max() - 1e6).abs() < 1e-12);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 5, "five distinct values, five buckets");
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn histogram_quantiles_within_documented_bound() {
        let mut h = Histogram::new();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &v in &values {
            h.record(v);
        }
        // Nearest-rank exact quantiles of 1..=1000.
        for (q, exact) in [(0.50, 500.0), (0.90, 900.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= 0.003,
                "q={q}: est {est} vs exact {exact} (rel err {rel:.5})"
            );
        }
        assert_eq!(h.quantile(0.0), 1.0, "p0 clamps to exact min");
        assert_eq!(h.quantile(1.0), 1000.0, "p100 clamps to exact max");
    }

    #[test]
    fn histogram_zero_bucket_and_nan() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(5.0);
        assert_eq!(h.count(), 3, "NaN is ignored");
        assert_eq!(h.buckets()[0], (0.0, 2), "zero bucket counts v <= 0");
        // Rank 1 and 2 are in the zero bucket: representative 0 clamped
        // into [min, max] = [-3, 5].
        assert_eq!(h.quantile(0.4), 0.0);
    }

    #[test]
    fn histogram_single_value_is_exact() {
        let mut h = Histogram::new();
        h.record(4.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 4.0, "clamping makes single value exact");
        }
    }

    #[test]
    fn span_aggregation_folds_min_max_total_and_quantiles() {
        let r = Registry::new();
        r.set_enabled(true);
        r.record_span("stage", None, 10);
        r.record_span("stage", None, 30);
        r.record_span("stage", None, 20);
        let snap = r.snapshot();
        let s = snap.span("stage").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        // p50 of {10, 20, 30} is the rank-2 sample (20) within 0.3%.
        assert!((s.p50_ns - 20.0).abs() / 20.0 <= 0.003, "p50 {}", s.p50_ns);
        assert!((s.p99_ns - 30.0).abs() / 30.0 <= 0.003, "p99 {}", s.p99_ns);
    }

    #[test]
    fn span_aggregation_is_thread_safe() {
        let r = std::sync::Arc::new(Registry::new());
        r.set_enabled(true);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.record_span("worker", None, 1);
                        r.counter_add("ticks", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.span("worker").unwrap().count, 8000);
        assert_eq!(snap.span("worker").unwrap().total_ns, 8000);
        assert_eq!(snap.counter("ticks"), Some(8000));
    }

    #[test]
    fn reset_clears_all_metrics() {
        let r = Registry::new();
        r.set_enabled(true);
        r.counter_add("c", 1);
        r.record_span("s", None, 5);
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
        assert!(r.is_enabled(), "reset must not flip the enabled flag");
    }
}
