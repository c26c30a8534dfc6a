//! Point-in-time, deterministic views of a [`crate::Registry`].
//!
//! A [`Snapshot`] owns plain sorted vectors — safe to hold across
//! further recording, cheap to render. Rendering lives here
//! (text table, JSON-lines, single JSON document); the runtime format
//! choice is in [`crate::sink`], and the Prometheus exposition form is
//! in [`crate::export`].

use std::fmt::Write as _;

/// Aggregated observations of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Self wall time, nanoseconds: total minus the time completed
    /// child spans reported (so a pure dispatcher span shows ~0).
    pub self_ns: u64,
    /// Shortest observation, nanoseconds.
    pub min_ns: u64,
    /// Longest observation, nanoseconds.
    pub max_ns: u64,
    /// Estimated median duration, nanoseconds (log-bucketed; see
    /// [`crate::Histogram`] for the error bound).
    pub p50_ns: f64,
    /// Estimated 90th-percentile duration, nanoseconds.
    pub p90_ns: f64,
    /// Estimated 99th-percentile duration, nanoseconds.
    pub p99_ns: f64,
    /// Name of the span enclosing the first observation, if any.
    pub parent: Option<String>,
}

impl SpanStats {
    /// Total wall time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean observation in seconds.
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs() / self.count as f64
        }
    }
}

/// Frozen view of one log-bucketed histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: f64,
    /// Exact mean (Welford, not bucket-approximated).
    pub mean: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Estimated median (see [`crate::Histogram`] for the error bound).
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// `(upper_bound, count)` per non-empty bucket, in bound order; a
    /// leading bound-0 entry counts values ≤ 0.
    pub buckets: Vec<(f64, u64)>,
}

/// A deterministic (name-sorted) copy of every metric in a registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, f64)>,
    /// Log-bucketed quantile histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span aggregates.
    pub spans: Vec<(String, SpanStats)>,
}

fn find<'a, T>(items: &'a [(String, T)], name: &str) -> Option<&'a T> {
    items
        .binary_search_by(|(k, _)| k.as_str().cmp(name))
        .ok()
        .map(|i| &items[i].1)
}

/// Escapes a string for inclusion in a JSON document.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes an f64 as a valid JSON number (non-finite values become 0,
/// which keeps consumers simple — telemetry never legitimately
/// produces them).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn human_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

impl Snapshot {
    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        find(&self.counters, name).copied()
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        find(&self.gauges, name).copied()
    }

    /// A histogram's frozen view, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        find(&self.histograms, name)
    }

    /// A span's aggregate, if present.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        find(&self.spans, name)
    }

    /// Sets (or replaces) the gauge `name`, keeping the vector
    /// name-sorted — used to inject derived gauges like
    /// `obs.alloc.peak_bytes` without touching the registry.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].1 = value,
            Err(i) => self.gauges.insert(i, (name.to_string(), value)),
        }
    }

    /// Sets (or replaces) the counter `name`, keeping the vector
    /// name-sorted — used to inject derived counters like the
    /// `obs.alloc.*` totals, which live outside the registry.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.counters[i].1 = value,
            Err(i) => self.counters.insert(i, (name.to_string(), value)),
        }
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Renders a human-readable text table (the `--log-format text`
    /// sink).
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return "telemetry: no metrics recorded\n".to_string();
        }
        let mut out = String::new();
        let name_w = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .chain(self.spans.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "spans ({:>w$} count    total     mean      p50      p99      max)",
                "",
                w = name_w.saturating_sub(5)
            );
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<name_w$} {:>5} {:>9} {:>9} {:>8} {:>8} {:>8}",
                    s.count,
                    human_duration(s.total_secs()),
                    human_duration(s.mean_secs()),
                    human_duration(s.p50_ns / 1e9),
                    human_duration(s.p99_ns / 1e9),
                    human_duration(s.max_ns as f64 / 1e9),
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<name_w$} {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<name_w$} {v:.4}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms (count / mean / p50 / p90 / p99 / max):");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<name_w$} {} / {:.3} / {:.3} / {:.3} / {:.3} / {:.3}",
                    h.count, h.mean, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        out
    }

    /// Renders JSON-lines: one self-describing object per metric (the
    /// `--log-format json` sink).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                escape_json(name)
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                escape_json(name),
                json_f64(*v)
            );
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",{}}}",
                escape_json(name),
                histogram_fields(h)
            );
        }
        for (name, s) in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":\"{}\",{}}}",
                escape_json(name),
                span_fields(s)
            );
        }
        out
    }

    /// Renders the whole snapshot as one JSON document (the
    /// `--metrics-out` file format):
    ///
    /// ```json
    /// {
    ///   "counters": {"sim.monitor.samples": 123, ...},
    ///   "gauges":   {"sim.monitor.budget_used_frac": 0.42, ...},
    ///   "histograms": {"name": {"count": 3, "p50": ..., "buckets": [...]}},
    ///   "spans":    {"simulate": {"count": 1, "total_ns": ..., "p99_ns": ..., ...}}
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", escape_json(name), json_f64(*v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{{}}}",
                escape_json(name),
                histogram_fields(h)
            );
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{{}}}",
                escape_json(name),
                span_fields(s)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn span_fields(s: &SpanStats) -> String {
    let parent = match &s.parent {
        Some(p) => format!("\"{}\"", escape_json(p)),
        None => "null".to_string(),
    };
    format!(
        "\"count\":{},\"total_ns\":{},\"self_ns\":{},\"min_ns\":{},\"max_ns\":{},\
         \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"total_s\":{},\"parent\":{}",
        s.count,
        s.total_ns,
        s.self_ns,
        s.min_ns,
        s.max_ns,
        json_f64(s.p50_ns),
        json_f64(s.p90_ns),
        json_f64(s.p99_ns),
        json_f64(s.total_secs()),
        parent
    )
}

fn histogram_fields(h: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    for (i, (bound, count)) in h.buckets.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(buckets, "{sep}{{\"le\":{},\"count\":{count}}}", json_f64(*bound));
    }
    buckets.push(']');
    format!(
        "\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":{}",
        h.count,
        json_f64(h.sum),
        json_f64(h.mean),
        json_f64(h.min),
        json_f64(h.max),
        json_f64(h.p50),
        json_f64(h.p90),
        json_f64(h.p99),
        buckets
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.set_enabled(true);
        r.counter_add("b.counter", 7);
        r.counter_add("a.counter", 3);
        r.gauge_set("z.gauge", 0.5);
        r.histogram_record("h.hist", 4.0);
        r.record_span("stage.one", None, 1_500_000);
        r.record_span("stage.two", Some("stage.one"), 500_000);
        r
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        let snap = sample_registry().snapshot();
        assert_eq!(snap.counters[0].0, "a.counter");
        assert_eq!(snap.counters[1].0, "b.counter");
        assert_eq!(snap.counter("b.counter"), Some(7));
        assert_eq!(snap.gauge("z.gauge"), Some(0.5));
        let h = snap.histogram("h.hist").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.p50, 4.0, "single value is exact");
        assert_eq!(h.sum, 4.0);
        let two = snap.span("stage.two").unwrap();
        assert_eq!(two.parent.as_deref(), Some("stage.one"));
        assert!((two.total_secs() - 0.0005).abs() < 1e-12);
        assert_eq!(two.p50_ns, 500_000.0, "single observation is exact");
    }

    #[test]
    fn text_rendering_mentions_every_metric() {
        let text = sample_registry().snapshot().render_text();
        for needle in ["a.counter", "z.gauge", "h.hist", "stage.one", "stage.two", "p99"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        assert!(snap.render_text().contains("no metrics"));
        assert_eq!(snap.render_jsonl(), "");
    }

    #[test]
    fn jsonl_has_one_valid_object_per_line() {
        let jsonl = sample_registry().snapshot().render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6, "2 counters + 1 gauge + 1 hist + 2 spans");
        for line in lines {
            let v: serde_json::Value = serde_json::parse(line).expect("valid JSON line");
            let obj = v.as_object().expect("object");
            assert!(obj.iter().any(|(k, _)| k == "type"));
            assert!(obj.iter().any(|(k, _)| k == "name"));
        }
    }

    #[test]
    fn json_document_parses_and_round_trips_names() {
        let doc = sample_registry().snapshot().to_json();
        let v: serde_json::Value = serde_json::parse(&doc).expect("valid JSON document");
        let obj = v.as_object().expect("top-level object");
        let section = |key: &str| {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_object().expect("section object"))
                .expect("section present")
        };
        assert_eq!(section("counters").len(), 2);
        assert_eq!(section("gauges").len(), 1);
        assert_eq!(section("histograms").len(), 1);
        let spans = section("spans");
        assert_eq!(spans.len(), 2);
        let one = spans
            .iter()
            .find(|(k, _)| k == "stage.one")
            .map(|(_, v)| v.as_object().unwrap())
            .unwrap();
        let total = one
            .iter()
            .find(|(k, _)| k == "total_ns")
            .and_then(|(_, v)| v.as_u64())
            .unwrap();
        assert_eq!(total, 1_500_000);
        let p99 = one
            .iter()
            .find(|(k, _)| k == "p99_ns")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert_eq!(p99, 1_500_000.0, "single observation is exact");
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn set_gauge_inserts_sorted_and_replaces() {
        let mut snap = sample_registry().snapshot();
        snap.set_gauge("a.gauge", 1.0);
        snap.set_gauge("z.gauge", 9.0);
        assert_eq!(snap.gauges[0].0, "a.gauge");
        assert_eq!(snap.gauge("z.gauge"), Some(9.0), "existing gauge replaced");
        assert_eq!(snap.gauges.len(), 2);
    }
}
