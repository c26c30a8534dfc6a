//! Profile-graph construction and exporter contracts on synthetic
//! timelines: deterministic output, correct self-time math, per-thread
//! merging, ring-wrap orphan accounting, and folded/speedscope
//! round-trips. Synthetic `TimelineSnapshot`s (no global state, no
//! clocks) make every expectation exact.

use hpcpower_obs::timeline::{EventKind, TimelineEvent, TimelineSnapshot};
use hpcpower_obs::{FlatProfile, ProfileGraph};

fn ev(
    kind: EventKind,
    name: &str,
    ts_ns: u64,
    tid: u64,
    span_id: u64,
    parent_id: Option<u64>,
    seq: u64,
) -> TimelineEvent {
    TimelineEvent {
        kind,
        name: name.to_string(),
        ts_ns,
        tid,
        span_id,
        parent_id,
        seq,
    }
}

/// One thread: `outer` (100 ns) containing `inner` (30 ns).
fn nested_timeline() -> TimelineSnapshot {
    TimelineSnapshot {
        events: vec![
            ev(EventKind::Begin, "outer", 0, 1, 1, None, 0),
            ev(EventKind::Begin, "inner", 20, 1, 2, Some(1), 1),
            ev(EventKind::End, "inner", 50, 1, 2, Some(1), 2),
            ev(EventKind::End, "outer", 100, 1, 1, None, 3),
        ],
        dropped: 0,
    }
}

#[test]
fn self_time_excludes_child_time() {
    let graph = ProfileGraph::from_timeline(&nested_timeline());
    assert_eq!(graph.nodes.len(), 2);
    assert_eq!(graph.roots.len(), 1);
    let outer = &graph.nodes[graph.roots[0]];
    assert_eq!(outer.name, "outer");
    assert_eq!(outer.count, 1);
    assert_eq!(outer.total_ns, 100);
    assert_eq!(outer.self_ns, 70, "100 total minus 30 in the child");
    let inner = &graph.nodes[outer.children[0]];
    assert_eq!(inner.name, "inner");
    assert_eq!(inner.total_ns, 30);
    assert_eq!(inner.self_ns, 30);
    assert_eq!(inner.parent, Some(graph.roots[0]));
    assert_eq!(graph.total_ns, 100);
    assert_eq!(graph.threads, 1);
    assert_eq!(graph.orphan_begins + graph.orphan_ends, 0);
}

#[test]
fn threads_merge_by_call_path() {
    // The same outer/inner path on two threads, plus a different root
    // on the second thread; identical paths merge, distinct paths
    // stay separate even when the span name matches ("inner" under a
    // different parent is a different node).
    let snap = TimelineSnapshot {
        events: vec![
            ev(EventKind::Begin, "outer", 0, 1, 1, None, 0),
            ev(EventKind::Begin, "inner", 10, 1, 2, Some(1), 1),
            ev(EventKind::Begin, "outer", 5, 2, 3, None, 2),
            ev(EventKind::Begin, "inner", 15, 2, 4, Some(3), 3),
            ev(EventKind::End, "inner", 30, 1, 2, Some(1), 4),
            ev(EventKind::End, "inner", 35, 2, 4, Some(3), 5),
            ev(EventKind::End, "outer", 60, 1, 1, None, 6),
            ev(EventKind::End, "outer", 65, 2, 3, None, 7),
            ev(EventKind::Begin, "other", 70, 2, 5, None, 8),
            ev(EventKind::Begin, "inner", 75, 2, 6, Some(5), 9),
            ev(EventKind::End, "inner", 80, 2, 6, Some(5), 10),
            ev(EventKind::End, "other", 90, 2, 5, None, 11),
        ],
        dropped: 0,
    };
    let graph = ProfileGraph::from_timeline(&snap);
    assert_eq!(graph.threads, 2);
    assert_eq!(graph.roots.len(), 2, "outer and other");
    let outer = graph
        .roots
        .iter()
        .map(|&r| &graph.nodes[r])
        .find(|n| n.name == "outer")
        .unwrap();
    assert_eq!(outer.count, 2, "both threads' outer spans merged");
    assert_eq!(outer.total_ns, 60 + 60);
    let outer_inner = &graph.nodes[outer.children[0]];
    assert_eq!(outer_inner.count, 2);
    assert_eq!(outer_inner.total_ns, 20 + 20);
    let other = graph
        .roots
        .iter()
        .map(|&r| &graph.nodes[r])
        .find(|n| n.name == "other")
        .unwrap();
    let other_inner = &graph.nodes[other.children[0]];
    assert_eq!(other_inner.count, 1, "same name, different path, own node");
}

#[test]
fn ring_wrap_orphans_are_counted_not_guessed() {
    // An End without its Begin (lost to ring wrap) and a Begin without
    // its End (span still open at snapshot time).
    let snap = TimelineSnapshot {
        events: vec![
            ev(EventKind::End, "wrapped", 10, 1, 99, None, 0),
            ev(EventKind::Begin, "root", 20, 1, 1, None, 1),
            ev(EventKind::Begin, "open", 30, 1, 2, Some(1), 2),
            ev(EventKind::End, "root", 50, 1, 1, None, 3),
        ],
        dropped: 7,
    };
    let graph = ProfileGraph::from_timeline(&snap);
    assert_eq!(graph.orphan_ends, 1, "the wrapped End");
    // "open" never ended: its frame survives the replay. "root" ended
    // while "open" was still on the stack (out-of-order pop), which the
    // rposition fallback handles.
    assert_eq!(graph.orphan_begins, 1);
    assert_eq!(graph.dropped_events, 7);
    let root = graph
        .nodes
        .iter()
        .find(|n| n.name == "root")
        .expect("root recorded");
    assert_eq!(root.count, 1);
    assert_eq!(root.total_ns, 30);
    let open = graph.nodes.iter().find(|n| n.name == "open").unwrap();
    assert_eq!(open.count, 0, "an orphan Begin contributes no time");
    assert_eq!(open.total_ns, 0);
}

#[test]
fn folded_export_is_deterministic_and_round_trips() {
    let graph = ProfileGraph::from_timeline(&nested_timeline());
    let folded = graph.to_folded();
    assert_eq!(folded, "outer 70\nouter;inner 30\n");
    assert_eq!(
        graph.to_folded(),
        folded,
        "same timeline, same bytes, every time"
    );
    let parsed = FlatProfile::from_folded(&folded).unwrap();
    assert_eq!(parsed, graph.flatten(), "folded round-trips the flat view");
    assert_eq!(parsed.total_ns(), 100);
}

#[test]
fn folded_sanitizes_reserved_characters() {
    let snap = TimelineSnapshot {
        events: vec![
            ev(EventKind::Begin, "a;b c", 0, 1, 1, None, 0),
            ev(EventKind::End, "a;b c", 10, 1, 1, None, 1),
        ],
        dropped: 0,
    };
    let folded = ProfileGraph::from_timeline(&snap).to_folded();
    assert_eq!(folded, "a:b_c 10\n");
    assert!(FlatProfile::from_folded(&folded).is_ok());
}

#[test]
fn speedscope_export_is_deterministic_and_round_trips() {
    let mut graph = ProfileGraph::from_timeline(&nested_timeline());
    // Give the inner node some attributed bytes so the second profile
    // is exercised too.
    let inner = graph.nodes.iter().position(|n| n.name == "inner").unwrap();
    graph.nodes[inner].alloc_bytes = 4096;
    let doc = graph.to_speedscope();
    assert_eq!(graph.to_speedscope(), doc, "deterministic bytes");
    let v = serde_json::parse(&doc).expect("speedscope export is valid JSON");
    let top = v.as_object().unwrap();
    let profiles = serde_json::find(top, "profiles")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(profiles.len(), 2, "wall time + allocated bytes");
    let parsed = FlatProfile::from_speedscope(&doc).unwrap();
    assert_eq!(parsed.total_ns(), 100);
    assert_eq!(parsed.total_bytes(), 4096);
    let inner_entry = parsed
        .entries
        .iter()
        .find(|e| e.stack == ["outer", "inner"])
        .expect("inner path present");
    assert_eq!(inner_entry.self_ns, 30);
    assert_eq!(inner_entry.self_bytes, 4096);
    // Auto-detection picks the speedscope parser for a '{' document.
    assert_eq!(FlatProfile::parse(&doc).unwrap(), parsed);
}

#[test]
fn svg_export_is_wellformed_and_escapes_names() {
    let snap = TimelineSnapshot {
        events: vec![
            ev(EventKind::Begin, "a<b&\"c", 0, 1, 1, None, 0),
            ev(EventKind::End, "a<b&\"c", 50, 1, 1, None, 1),
        ],
        dropped: 0,
    };
    let graph = ProfileGraph::from_timeline(&snap);
    let svg = graph.to_svg();
    assert_eq!(graph.to_svg(), svg, "deterministic bytes");
    assert!(svg.starts_with("<svg "));
    assert!(svg.trim_end().ends_with("</svg>"));
    assert!(
        svg.contains("a&lt;b&amp;&quot;c"),
        "span name is XML-escaped: {svg}"
    );
    assert!(
        !svg.contains("a<b"),
        "raw angle bracket must not survive into markup"
    );
    // Structural sanity: every opened <g> closes.
    assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    assert!(svg.contains("<title>"), "hover tooltips present");
}

#[test]
fn empty_timeline_produces_empty_but_valid_exports() {
    let graph = ProfileGraph::from_timeline(&TimelineSnapshot {
        events: vec![],
        dropped: 0,
    });
    assert_eq!(graph.nodes.len(), 0);
    assert_eq!(graph.to_folded(), "");
    let svg = graph.to_svg();
    assert!(svg.starts_with("<svg ") && svg.trim_end().ends_with("</svg>"));
    let parsed = FlatProfile::from_speedscope(&graph.to_speedscope()).unwrap();
    assert_eq!(parsed.entries.len(), 0);
}

#[test]
fn alloc_attribution_lands_on_matching_paths() {
    use hpcpower_obs::alloc::{AllocSnapshot, SlotSnapshot};
    let mut graph = ProfileGraph::from_timeline(&nested_timeline());
    // Slot layout mirroring crate::alloc: 0 = root, 1 = overflow, then
    // interned paths. Slot 2 = outer (parent root), slot 3 = inner
    // (parent slot 2), slot 4 = a path the timeline never saw.
    let slot = |name: &str, parent: u32, count: u64, bytes: u64| SlotSnapshot {
        name: name.to_string(),
        parent,
        alloc_count: count,
        alloc_bytes: bytes,
        dealloc_count: 0,
        dealloc_bytes: 0,
    };
    let alloc = AllocSnapshot {
        enabled: true,
        alloc_count: 13,
        alloc_bytes: 1110,
        dealloc_count: 0,
        dealloc_bytes: 0,
        current_bytes: 1110,
        peak_bytes: 1110,
        slots: vec![
            slot("(root)", 0, 1, 10),
            slot("(overflow)", 0, 2, 100),
            slot("outer", 0, 4, 400),
            slot("inner", 2, 5, 500),
            slot("unseen", 0, 1, 100),
        ],
    };
    graph.attach_alloc(&alloc);
    let outer = &graph.nodes[graph.roots[0]];
    assert_eq!(outer.alloc_bytes, 400);
    assert_eq!(outer.alloc_count, 4);
    let inner = &graph.nodes[outer.children[0]];
    assert_eq!(inner.alloc_bytes, 500);
    // Root traffic, overflow traffic, and the path the timeline lost
    // all land in the unattributed bucket — nothing silently dropped.
    assert_eq!(graph.unattributed_alloc_bytes, 10 + 100 + 100);
    assert_eq!(graph.unattributed_alloc_count, 1 + 2 + 1);
    assert_eq!(graph.attributed_alloc_bytes(), 900);
}
