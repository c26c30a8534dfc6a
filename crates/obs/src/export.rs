//! Standard-format exporters: Chrome trace-event JSON and Prometheus
//! text exposition (v0.0.4), both written from scratch (the workspace
//! is offline).
//!
//! - [`chrome_trace`] renders a [`TimelineSnapshot`] as a trace-event
//!   JSON document loadable in Perfetto / `chrome://tracing`: one "B"
//!   (begin) and one "E" (end) phase event per completed span, with
//!   `pid`/`tid`/microsecond timestamps and the span/parent ids in
//!   `args`. Ring wrap-around can orphan one half of a pair; the
//!   exporter drops unmatched events (viewers reject unbalanced B/E)
//!   and reports both `events_dropped` and `events_unmatched` in the
//!   document metadata — truncation is never silent.
//! - [`prometheus`] renders a registry [`Snapshot`] in the exposition
//!   format: counters as `_total` counters, gauges as gauges,
//!   log-bucketed histograms as `le`-bucketed cumulative histograms
//!   with `_sum`/`_count`, and span aggregates as summaries with
//!   `quantile` labels.
//! - [`lint_prometheus`] is a small from-scratch exposition-format
//!   checker (metric-name charset, `le` monotonicity, `_count`/`_sum`
//!   consistency) used by the exporter tests and the tier-1 smoke.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::snapshot::{escape_json, Snapshot};
use crate::timeline::{EventKind, TimelineSnapshot};

/// Renders a timeline snapshot as Chrome trace-event JSON.
///
/// Events are emitted in `(ts, seq)` order. Every emitted "B" has a
/// matching "E" on the same `tid`: events whose partner was lost to
/// ring wrap-around are skipped and counted in
/// `metadata.events_unmatched`.
pub fn chrome_trace(snap: &TimelineSnapshot) -> String {
    // Pair up B/E events per tid. Span guards are strictly LIFO within
    // a thread, so in a complete timeline every End matches the top of
    // its thread's stack; any mismatch means the partner was dropped.
    let mut keep = vec![false; snap.events.len()];
    let mut stacks: HashMap<u64, Vec<(usize, u64)>> = HashMap::new();
    for (i, ev) in snap.events.iter().enumerate() {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::Begin => stack.push((i, ev.span_id)),
            EventKind::End => {
                if stack.last().is_some_and(|&(_, id)| id == ev.span_id) {
                    let (begin_idx, _) = stack.pop().expect("checked non-empty");
                    keep[begin_idx] = true;
                    keep[i] = true;
                } else if let Some(pos) =
                    stack.iter().rposition(|&(_, id)| id == ev.span_id)
                {
                    // A guard moved across threads closed out of LIFO
                    // order; everything it skips over stays unmatched
                    // only if its own End never arrives.
                    let (begin_idx, _) = stack.remove(pos);
                    keep[begin_idx] = true;
                    keep[i] = true;
                }
                // An End with no Begin on record: its Begin was
                // overwritten by the ring — skip it.
            }
        }
    }
    let kept = keep.iter().filter(|&&k| k).count();
    let unmatched = snap.events.len() - kept;

    let mut out = String::from("{\n\"traceEvents\": [\n");
    let mut first = true;
    for (ev, _) in snap.events.iter().zip(&keep).filter(|(_, &k)| k) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ph = match ev.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"hpcpower\",\"ph\":\"{ph}\",\"pid\":1,\
             \"tid\":{},\"ts\":{:.3}",
            escape_json(&ev.name),
            ev.tid,
            ev.ts_ns as f64 / 1e3,
        );
        let _ = write!(out, ",\"args\":{{\"span_id\":{}", ev.span_id);
        if let Some(p) = ev.parent_id {
            let _ = write!(out, ",\"parent_id\":{p}");
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "\n],\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {{\
         \"events_recorded\": {},\"events_dropped\": {},\"events_unmatched\": {unmatched}}}\n}}\n",
        snap.events.len(),
        snap.dropped,
    );
    out
}

/// Maps a dotted metric name onto the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats an f64 for a Prometheus sample value (`+Inf`/`-Inf`/`NaN`
/// spellings per the exposition format).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escapes HELP text per the exposition format: `\` and line feeds
/// must be backslash-escaped.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders a registry snapshot in the Prometheus text exposition
/// format v0.0.4.
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let pname = format!("{}_total", sanitize_metric_name(name));
        let _ = writeln!(out, "# HELP {pname} Monotonic counter {}", escape_help(name));
        let _ = writeln!(out, "# TYPE {pname} counter");
        let _ = writeln!(out, "{pname} {v}");
    }
    for (name, v) in &snap.gauges {
        let pname = sanitize_metric_name(name);
        let _ = writeln!(out, "# HELP {pname} Gauge {}", escape_help(name));
        let _ = writeln!(out, "# TYPE {pname} gauge");
        let _ = writeln!(out, "{pname} {}", prom_f64(*v));
    }
    for (name, h) in &snap.histograms {
        let pname = sanitize_metric_name(name);
        let _ = writeln!(
            out,
            "# HELP {pname} Log-bucketed histogram {}",
            escape_help(name)
        );
        let _ = writeln!(out, "# TYPE {pname} histogram");
        let mut cum = 0u64;
        for (bound, count) in &h.buckets {
            cum += count;
            let _ = writeln!(out, "{pname}_bucket{{le=\"{}\"}} {cum}", prom_f64(*bound));
        }
        let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{pname}_sum {}", prom_f64(h.sum));
        let _ = writeln!(out, "{pname}_count {}", h.count);
    }
    for (name, s) in &snap.spans {
        let pname = format!("{}_seconds", sanitize_metric_name(name));
        let _ = writeln!(out, "# HELP {pname} Span duration {}", escape_help(name));
        let _ = writeln!(out, "# TYPE {pname} summary");
        for (q, v_ns) in [(0.5, s.p50_ns), (0.9, s.p90_ns), (0.99, s.p99_ns)] {
            let _ = writeln!(
                out,
                "{pname}{{quantile=\"{q}\"}} {}",
                prom_f64(v_ns / 1e9)
            );
        }
        let _ = writeln!(out, "{pname}_sum {}", prom_f64(s.total_secs()));
        let _ = writeln!(out, "{pname}_count {}", s.count);
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[derive(Debug)]
struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    line: usize,
}

impl PromSample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn parse_prom_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

fn parse_sample(line: &str, lineno: usize) -> Result<PromSample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: {line:?}");
    let (name, labels_str, value_str) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or_else(|| err("unterminated label set"))?;
            if close < brace {
                return Err(err("mismatched braces"));
            }
            (
                &line[..brace],
                Some(&line[brace + 1..close]),
                &line[close + 1..],
            )
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| err("sample has no value"))?;
            (&line[..sp], None, &line[sp..])
        }
    };
    if !valid_metric_name(name) {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    if let Some(ls) = labels_str {
        let mut s = ls;
        while !s.is_empty() {
            let eq = s.find('=').ok_or_else(|| err("label without '='"))?;
            let key = s[..eq].trim();
            if !valid_label_name(key) {
                return Err(err("invalid label name"));
            }
            let after = &s[eq + 1..];
            if !after.starts_with('"') {
                return Err(err("label value not quoted"));
            }
            // Find the closing unescaped quote.
            let mut end = None;
            let bytes = after.as_bytes();
            let mut i = 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        end = Some(i);
                        break;
                    }
                    _ => i += 1,
                }
            }
            let end = end.ok_or_else(|| err("unterminated label value"))?;
            labels.push((key.to_string(), after[1..end].to_string()));
            s = after[end + 1..].trim_start_matches(',').trim_start();
        }
    }
    let value_str = value_str.trim();
    // A timestamp may follow the value; take the first token.
    let value_tok = value_str.split_whitespace().next().unwrap_or("");
    let value = parse_prom_value(value_tok).ok_or_else(|| err("unparseable sample value"))?;
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
        line: lineno,
    })
}

/// Checks a Prometheus text exposition document: metric-name and
/// label-name charsets, `# TYPE` validity, `le` bucket monotonicity,
/// and `_count`/`_sum` consistency for histograms and summaries.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    let mut types: Vec<(String, String)> = Vec::new();
    let mut samples: Vec<PromSample> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without metric name"))?;
                let ty = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid metric name {name:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                    return Err(format!("line {lineno}: unknown type {ty:?}"));
                }
                if types.iter().any(|(n, _)| n == name) {
                    return Err(format!("line {lineno}: duplicate TYPE for {name:?}"));
                }
                types.push((name.to_string(), ty.to_string()));
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid metric name {name:?}"));
                }
            }
            // Other '#' lines are free-form comments.
            continue;
        }
        samples.push(parse_sample(line, lineno)?);
    }

    for (name, ty) in &types {
        match ty.as_str() {
            "counter" => {
                let base: Vec<_> = samples.iter().filter(|s| &s.name == name).collect();
                if base.is_empty() {
                    return Err(format!("counter {name:?} has no samples"));
                }
                for s in base {
                    if s.value < 0.0 {
                        return Err(format!("line {}: counter {name:?} is negative", s.line));
                    }
                }
            }
            "histogram" => lint_histogram(name, &samples)?,
            "summary" => lint_summary(name, &samples)?,
            _ => {}
        }
    }
    Ok(())
}

fn find_single_value(samples: &[PromSample], name: &str) -> Result<f64, String> {
    let matches: Vec<_> = samples.iter().filter(|s| s.name == name).collect();
    match matches.as_slice() {
        [one] => Ok(one.value),
        [] => Err(format!("missing sample {name:?}")),
        _ => Err(format!("duplicate sample {name:?}")),
    }
}

fn lint_histogram(name: &str, samples: &[PromSample]) -> Result<(), String> {
    let bucket_name = format!("{name}_bucket");
    let buckets: Vec<_> = samples.iter().filter(|s| s.name == bucket_name).collect();
    if buckets.is_empty() {
        return Err(format!("histogram {name:?} has no {bucket_name:?} samples"));
    }
    let mut prev_le = f64::NEG_INFINITY;
    let mut prev_cum = 0.0f64;
    for b in &buckets {
        let le_str = b
            .label("le")
            .ok_or_else(|| format!("line {}: bucket without le label", b.line))?;
        let le = parse_prom_value(le_str)
            .filter(|v| !v.is_nan())
            .ok_or_else(|| format!("line {}: unparseable le {le_str:?}", b.line))?;
        if le <= prev_le {
            return Err(format!(
                "line {}: le buckets not strictly increasing ({le} after {prev_le})",
                b.line
            ));
        }
        if b.value < prev_cum {
            return Err(format!(
                "line {}: cumulative bucket count decreased ({} after {prev_cum})",
                b.line, b.value
            ));
        }
        prev_le = le;
        prev_cum = b.value;
    }
    if prev_le != f64::INFINITY {
        return Err(format!("histogram {name:?} last bucket le is not +Inf"));
    }
    let count = find_single_value(samples, &format!("{name}_count"))?;
    find_single_value(samples, &format!("{name}_sum"))?;
    if count != prev_cum {
        return Err(format!(
            "histogram {name:?}: _count {count} != +Inf bucket {prev_cum}"
        ));
    }
    Ok(())
}

fn lint_summary(name: &str, samples: &[PromSample]) -> Result<(), String> {
    for s in samples.iter().filter(|s| s.name == name) {
        let q_str = s
            .label("quantile")
            .ok_or_else(|| format!("line {}: summary sample without quantile", s.line))?;
        let q: f64 = q_str
            .parse()
            .map_err(|_| format!("line {}: unparseable quantile {q_str:?}", s.line))?;
        if !(0.0..=1.0).contains(&q) {
            return Err(format!("line {}: quantile {q} outside [0, 1]", s.line));
        }
    }
    find_single_value(samples, &format!("{name}_count"))?;
    find_single_value(samples, &format!("{name}_sum"))?;
    Ok(())
}
