//! Exporter validity tests.
//!
//! The Chrome trace exporter's output must parse as JSON and contain
//! balanced, properly nested `"B"`/`"E"` events per thread — that is
//! what `chrome://tracing` / Perfetto require to render at all. The
//! Prometheus exporter's output must survive a from-scratch exposition
//! linter (metric-name charset, `le` monotonicity, `_count`/`_sum`
//! consistency), which the negative cases prove actually rejects
//! malformed expositions rather than waving everything through.

use hpcpower_obs::export::{chrome_trace, lint_prometheus, prometheus, sanitize_metric_name};
use hpcpower_obs::timeline::EventKind;
use hpcpower_obs::{Registry, TimelineEvent, TimelineSnapshot};
use serde_json::Value;

// ---------------------------------------------------------------- chrome

/// Runs nested + threaded spans through the *global* registry and
/// timeline exactly as the CLI does with `--trace-out`, then round-trips
/// the export through the JSON parser.
///
/// One test owns all global-timeline behaviour: the test harness runs
/// `#[test]` fns concurrently and the timeline is process-wide state.
#[test]
fn chrome_trace_round_trips_and_balances() {
    hpcpower_obs::reset();
    hpcpower_obs::enable();
    hpcpower_obs::enable_timeline();
    {
        let _outer = hpcpower_obs::span!("export.test.outer");
        let _inner = hpcpower_obs::span!("export.test.inner");
        let threads: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..5 {
                        let _w = hpcpower_obs::span!("export.test.worker");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
    let snap = hpcpower_obs::timeline_snapshot();
    hpcpower_obs::disable_timeline();
    hpcpower_obs::disable();
    assert_eq!(snap.dropped, 0, "tiny workload must not wrap the ring");

    let text = chrome_trace(&snap);
    let doc = serde_json::parse(&text).expect("chrome trace must be valid JSON");
    let root = doc.as_object().expect("root is an object");
    let events = serde_json::find(root, "traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    // 2 nested + 3*5 worker spans, Begin and End each.
    assert_eq!(events.len(), 2 * (2 + 15));

    // Per-tid stack replay: every E closes the B on top of its stack,
    // nothing left open, timestamps non-decreasing in file order.
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts = f64::NEG_INFINITY;
    for ev in events {
        let ev = ev.as_object().expect("event is an object");
        let name = serde_json::find(ev, "name")
            .and_then(Value::as_str)
            .unwrap();
        let ph = serde_json::find(ev, "ph").and_then(Value::as_str).unwrap();
        let tid = serde_json::find(ev, "tid").and_then(Value::as_u64).unwrap();
        let ts = serde_json::find(ev, "ts").and_then(Value::as_f64).unwrap();
        assert_eq!(serde_json::find(ev, "pid").and_then(Value::as_u64), Some(1));
        assert!(ts >= last_ts, "events must be in timestamp order");
        last_ts = ts;
        let args = serde_json::find(ev, "args")
            .and_then(Value::as_object)
            .unwrap();
        assert!(serde_json::find(args, "span_id")
            .and_then(Value::as_u64)
            .is_some());
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack
                    .pop()
                    .unwrap_or_else(|| panic!("E {name:?} on tid {tid} with no open B"));
                assert_eq!(open, name, "E must close the innermost B on its tid");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }
    // The nested pair must live on one tid and nest properly.
    let metadata = serde_json::find(root, "metadata")
        .and_then(Value::as_object)
        .unwrap();
    assert_eq!(
        serde_json::find(metadata, "events_dropped").and_then(Value::as_u64),
        Some(0)
    );
    assert_eq!(
        serde_json::find(metadata, "events_unmatched").and_then(Value::as_u64),
        Some(0)
    );
}

fn ev(kind: EventKind, name: &str, ts_ns: u64, tid: u64, span_id: u64, seq: u64) -> TimelineEvent {
    TimelineEvent {
        kind,
        name: name.to_string(),
        ts_ns,
        tid,
        span_id,
        parent_id: None,
        seq,
    }
}

/// A wrapped ring loses Begin events; the exporter must drop their
/// orphaned Ends (and report them) instead of emitting an unbalanced
/// trace that the viewer rejects.
#[test]
fn chrome_trace_sanitizes_unmatched_events_from_ring_wrap() {
    let snap = TimelineSnapshot {
        events: vec![
            // End whose Begin was overwritten by the ring.
            ev(EventKind::End, "lost", 50, 1, 1, 3),
            ev(EventKind::Begin, "kept", 100, 1, 2, 4),
            ev(EventKind::End, "kept", 200, 1, 2, 5),
        ],
        dropped: 3,
    };
    let text = chrome_trace(&snap);
    let doc = serde_json::parse(&text).expect("valid JSON");
    let root = doc.as_object().unwrap();
    let events = serde_json::find(root, "traceEvents")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(events.len(), 2, "only the matched pair survives");
    let metadata = serde_json::find(root, "metadata")
        .and_then(Value::as_object)
        .unwrap();
    assert_eq!(
        serde_json::find(metadata, "events_dropped").and_then(Value::as_u64),
        Some(3)
    );
    assert_eq!(
        serde_json::find(metadata, "events_unmatched").and_then(Value::as_u64),
        Some(1)
    );
}

/// Names with JSON-hostile characters must be escaped, not emitted raw.
#[test]
fn chrome_trace_escapes_names() {
    let snap = TimelineSnapshot {
        events: vec![
            ev(EventKind::Begin, "quote\"back\\slash", 1, 1, 1, 1),
            ev(EventKind::End, "quote\"back\\slash", 2, 1, 1, 2),
        ],
        dropped: 0,
    };
    let doc = serde_json::parse(&chrome_trace(&snap)).expect("escaped JSON parses");
    let events = serde_json::find(doc.as_object().unwrap(), "traceEvents")
        .and_then(Value::as_array)
        .unwrap();
    let name = serde_json::find(events[0].as_object().unwrap(), "name")
        .and_then(Value::as_str)
        .unwrap();
    assert_eq!(name, "quote\"back\\slash");
}

/// Ring-wrap orphan replay with *deep* nesting: every thread records
/// rounds of depth-5 span stacks into a tiny ring, so wrap-around
/// orphans Ends deep inside a stack, not just at the top. The exporter
/// must still emit a trace whose per-tid B/E replay balances.
#[test]
fn chrome_trace_balances_deeply_nested_spans_after_ring_wrap() {
    use hpcpower_obs::timeline::next_span_id;
    use hpcpower_obs::Timeline;

    const DEPTH: usize = 5;
    fn record_nested(t: &Timeline, depth: usize) {
        let mut ids: Vec<u64> = Vec::with_capacity(depth);
        for d in 0..depth {
            let id = next_span_id();
            t.record(
                EventKind::Begin,
                &format!("deep.d{d}"),
                id,
                ids.last().copied(),
            );
            ids.push(id);
        }
        for d in (0..depth).rev() {
            let parent = if d == 0 { None } else { Some(ids[d - 1]) };
            t.record(EventKind::End, &format!("deep.d{d}"), ids[d], parent);
        }
    }

    // 6 per-shard slots, far below 6 threads x 8 rounds x 10 events:
    // every shard wraps many times over.
    let t = Timeline::with_capacity(48);
    t.set_enabled(true);
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| {
                for _ in 0..8 {
                    record_nested(&t, DEPTH);
                }
            });
        }
    });
    let snap = t.snapshot();
    assert!(snap.dropped > 0, "the ring must actually have wrapped");
    let tids: std::collections::BTreeSet<u64> = snap.events.iter().map(|e| e.tid).collect();
    assert!(
        tids.len() >= 2,
        "events must span multiple shards, got {tids:?}"
    );

    let doc = serde_json::parse(&chrome_trace(&snap)).expect("valid JSON after wrap");
    let root = doc.as_object().unwrap();
    let events = serde_json::find(root, "traceEvents")
        .and_then(Value::as_array)
        .unwrap();
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    for ev in events {
        let ev = ev.as_object().unwrap();
        let name = serde_json::find(ev, "name")
            .and_then(Value::as_str)
            .unwrap();
        let tid = serde_json::find(ev, "tid").and_then(Value::as_u64).unwrap();
        match serde_json::find(ev, "ph").and_then(Value::as_str).unwrap() {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let open = stacks.get_mut(&tid).and_then(Vec::pop);
                assert_eq!(open.as_deref(), Some(name), "E must close the innermost B");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }
    let metadata = serde_json::find(root, "metadata")
        .and_then(Value::as_object)
        .unwrap();
    let unmatched = serde_json::find(metadata, "events_unmatched")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(
        unmatched > 0,
        "wrap must orphan some events in this workload"
    );
}

/// Without wrap, a complete depth-5 multi-thread timeline must replay
/// with every level matched — the full stack depth survives export.
#[test]
fn chrome_trace_preserves_full_nesting_depth_across_threads() {
    use hpcpower_obs::timeline::next_span_id;
    use hpcpower_obs::Timeline;

    let t = Timeline::with_capacity(65_536);
    t.set_enabled(true);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut ids: Vec<u64> = Vec::new();
                for d in 0..5 {
                    let id = next_span_id();
                    t.record(
                        EventKind::Begin,
                        &format!("deep.d{d}"),
                        id,
                        ids.last().copied(),
                    );
                    ids.push(id);
                }
                for d in (0..5).rev() {
                    let parent = if d == 0 { None } else { Some(ids[d - 1]) };
                    t.record(EventKind::End, &format!("deep.d{d}"), ids[d], parent);
                }
            });
        }
    });
    let snap = t.snapshot();
    assert_eq!(snap.dropped, 0);
    let doc = serde_json::parse(&chrome_trace(&snap)).expect("valid JSON");
    let root = doc.as_object().unwrap();
    let events = serde_json::find(root, "traceEvents")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(events.len(), 4 * 2 * 5, "every event survives");
    let mut depth: std::collections::BTreeMap<u64, (usize, usize)> = Default::default();
    for ev in events {
        let ev = ev.as_object().unwrap();
        let tid = serde_json::find(ev, "tid").and_then(Value::as_u64).unwrap();
        let (cur, max) = depth.entry(tid).or_default();
        match serde_json::find(ev, "ph").and_then(Value::as_str).unwrap() {
            "B" => {
                *cur += 1;
                *max = (*max).max(*cur);
            }
            _ => *cur -= 1,
        }
    }
    assert_eq!(depth.len(), 4, "one stack per thread");
    for (tid, (cur, max)) in &depth {
        assert_eq!(*cur, 0, "tid {tid} unbalanced");
        assert_eq!(*max, 5, "tid {tid} lost nesting depth");
    }
    assert_eq!(
        serde_json::find(
            serde_json::find(root, "metadata")
                .and_then(Value::as_object)
                .unwrap(),
            "events_unmatched"
        )
        .and_then(Value::as_u64),
        Some(0)
    );
}

// ------------------------------------------------------------ prometheus

/// A registry with every metric kind exports a lint-clean exposition.
#[test]
fn prometheus_export_passes_the_linter() {
    let r = Registry::new();
    r.set_enabled(true);
    r.counter_add("sim.jobs.placed", 42);
    r.gauge_set("sim.queue.depth", 7.5);
    for v in [0.5, 1.0, 2.0, 250.0, 300.0, 1e6] {
        r.histogram_record("power.node_w", v);
    }
    r.record_span("report.render", None, 1_200_000);
    r.record_span("report.render", None, 2_400_000);
    let text = prometheus(&r.snapshot());
    lint_prometheus(&text).unwrap_or_else(|e| panic!("lint failed: {e}\n---\n{text}"));
    assert!(text.contains("# TYPE sim_jobs_placed_total counter"));
    assert!(text.contains("sim_jobs_placed_total 42"));
    assert!(text.contains("# TYPE power_node_w histogram"));
    assert!(text.contains("power_node_w_bucket{le=\"+Inf\"} 6"));
    assert!(text.contains("power_node_w_count 6"));
    assert!(text.contains("# TYPE report_render_seconds summary"));
    assert!(text.contains("report_render_seconds{quantile=\"0.99\"}"));
    assert!(text.contains("report_render_seconds_count 2"));
}

/// An empty registry still exports a lint-clean (empty) exposition.
#[test]
fn prometheus_export_of_empty_snapshot_is_clean() {
    let r = Registry::new();
    let text = prometheus(&r.snapshot());
    lint_prometheus(&text).expect("empty exposition lints clean");
}

#[test]
fn sanitizer_maps_names_into_the_prometheus_charset() {
    assert_eq!(sanitize_metric_name("sim.jobs.placed"), "sim_jobs_placed");
    assert_eq!(sanitize_metric_name("power/node-w"), "power_node_w");
    assert_eq!(sanitize_metric_name("0weird"), "_0weird");
}

// The linter must reject malformed expositions — otherwise the positive
// test above proves nothing.

#[test]
fn linter_rejects_bad_metric_name() {
    let text = "# TYPE bad-name counter\nbad-name 1\n";
    assert!(
        lint_prometheus(text).is_err(),
        "dash in a metric name must fail"
    );
}

#[test]
fn linter_rejects_unknown_type() {
    let text = "# TYPE m widget\nm 1\n";
    assert!(lint_prometheus(text).is_err());
}

#[test]
fn linter_rejects_non_monotone_le_bounds() {
    let text = "\
# TYPE h histogram
h_bucket{le=\"10\"} 1
h_bucket{le=\"5\"} 2
h_bucket{le=\"+Inf\"} 3
h_sum 12
h_count 3
";
    let err = lint_prometheus(text).unwrap_err();
    assert!(err.contains("le"), "error should name the le bounds: {err}");
}

#[test]
fn linter_rejects_non_cumulative_bucket_counts() {
    let text = "\
# TYPE h histogram
h_bucket{le=\"5\"} 4
h_bucket{le=\"10\"} 2
h_bucket{le=\"+Inf\"} 4
h_sum 12
h_count 4
";
    assert!(
        lint_prometheus(text).is_err(),
        "bucket counts must be cumulative"
    );
}

#[test]
fn linter_rejects_count_inconsistent_with_inf_bucket() {
    let text = "\
# TYPE h histogram
h_bucket{le=\"5\"} 1
h_bucket{le=\"+Inf\"} 3
h_sum 12
h_count 7
";
    assert!(
        lint_prometheus(text).is_err(),
        "_count must equal the +Inf bucket"
    );
}

#[test]
fn linter_rejects_histogram_missing_sum() {
    let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 3
h_count 3
";
    assert!(lint_prometheus(text).is_err(), "histograms need _sum");
}

#[test]
fn linter_rejects_summary_quantile_out_of_range() {
    let text = "\
# TYPE s summary
s{quantile=\"1.5\"} 3
s_sum 9
s_count 3
";
    assert!(
        lint_prometheus(text).is_err(),
        "quantile label must be in [0, 1]"
    );
}

#[test]
fn linter_rejects_unescaped_quote_in_label_value() {
    // The raw quote ends the value early, leaving `y"` as garbage.
    let text = "# TYPE m gauge\nm{a=\"x\"y\"} 1\n";
    let err = lint_prometheus(text).unwrap_err();
    assert!(
        err.contains("label"),
        "error should blame the label set: {err}"
    );
}

#[test]
fn linter_rejects_unterminated_label_value() {
    let text = "# TYPE m gauge\nm{a=\"x} 1\n";
    assert!(
        lint_prometheus(text).is_err(),
        "missing closing quote must fail"
    );
}

#[test]
fn linter_rejects_trailing_backslash_in_label_value() {
    // `x\` swallows the closing quote, so the value never terminates.
    let text = "# TYPE m gauge\nm{a=\"x\\\"} 1\n";
    let err = lint_prometheus(text).unwrap_err();
    assert!(err.contains("unterminated"), "got: {err}");
}

/// Escaped label values (`\\`, `\"`, `\n` per the exposition format)
/// must parse, proving the negative cases above fail for the right
/// reason.
#[test]
fn linter_accepts_escaped_label_values() {
    let text = "# TYPE m gauge\nm{a=\"x\\\\y\\\"z\\n\"} 1\n";
    lint_prometheus(text).unwrap_or_else(|e| panic!("escaped value must lint: {e}"));
}

/// The profiler's meta-metrics (`obs.alloc.*`, `obs.profile.*`) ride
/// the normal export path: dotted names must sanitize into the
/// Prometheus charset and the document must lint clean.
#[test]
fn prometheus_exports_profiler_meta_metrics() {
    let r = Registry::new();
    r.set_enabled(true);
    r.counter_add("obs.alloc.allocations", 1234);
    r.counter_add("obs.alloc.allocated_bytes", 1 << 20);
    r.gauge_set("obs.alloc.peak_bytes", 524_288.0);
    r.gauge_set("obs.profile.nodes", 17.0);
    r.gauge_set("obs.profile.orphan_events", 0.0);
    let text = prometheus(&r.snapshot());
    lint_prometheus(&text).unwrap_or_else(|e| panic!("lint failed: {e}\n---\n{text}"));
    assert!(text.contains("# TYPE obs_alloc_allocations_total counter"));
    assert!(text.contains("obs_alloc_allocated_bytes_total 1048576"));
    assert!(text.contains("# TYPE obs_profile_nodes gauge"));
    assert!(text.contains("obs_profile_nodes 17"));
    // HELP comments echo the original dotted name; the sample lines
    // themselves must be fully sanitized.
    assert!(
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .all(|l| !l.contains("obs.")),
        "dots must not survive sanitization in sample lines:\n{text}"
    );
}

/// ...and the linter genuinely rejects the unsanitized form, so the
/// positive case above is load-bearing.
#[test]
fn linter_rejects_dotted_profiler_metric_names() {
    let text = "# TYPE obs.alloc.peak_bytes gauge\nobs.alloc.peak_bytes 1\n";
    assert!(
        lint_prometheus(text).is_err(),
        "dotted name must fail the charset check"
    );
}

/// HELP text escaping: backslashes and newlines in metric names —
/// which the exporter echoes into HELP — must be escaped.
#[test]
fn prometheus_help_text_is_escaped() {
    let r = Registry::new();
    r.set_enabled(true);
    r.counter_add("weird\\name\nwith.newline", 1);
    let text = prometheus(&r.snapshot());
    lint_prometheus(&text).unwrap_or_else(|e| panic!("lint failed: {e}\n---\n{text}"));
    assert!(
        text.contains("weird\\\\name\\nwith.newline"),
        "HELP must escape backslash and newline:\n{text}"
    );
}
