//! Continuous profiling: a span-tree profile graph aggregated from the
//! event timeline, with flamegraph-family exporters.
//!
//! Spans double as the logical call stack: every span name reached
//! through a distinct chain of parents is its own [`ProfileNode`], with
//! per-node call counts, inclusive (`total_ns`) and self
//! (`self_ns = total − time in children`) wall time, and — when the
//! allocation gate was on (see [`crate::alloc`]) — bytes attributed to
//! the path. Per-thread event streams replay independently and merge by
//! call path, so a stage fanned out over rayon workers folds into one
//! node.
//!
//! All three exporters are **deterministic given a fixed timeline**:
//! nodes are traversed depth-first with children in name order, so the
//! same events always produce the same bytes.
//!
//! - [`ProfileGraph::to_folded`] — collapsed-stack text
//!   (`a;b;c self_ns` per line), the lingua franca of
//!   `flamegraph.pl`-style tooling.
//! - [`ProfileGraph::to_svg`] — a self-contained flamegraph SVG
//!   (no scripts, no external assets) with hover titles.
//! - [`ProfileGraph::to_speedscope`] — speedscope JSON carrying two
//!   sampled profiles (wall nanoseconds and allocated bytes) over a
//!   shared frame table; load it at <https://speedscope.app>.
//!
//! Ring wrap-around can orphan half of a begin/end pair; orphans are
//! counted ([`ProfileGraph::orphan_begins`] / `orphan_ends`), never
//! guessed at, mirroring the Chrome trace exporter's policy.
//!
//! [`FlatProfile`] is the parse-side dual: it reads folded text or
//! speedscope JSON back into path/value rows, which is what
//! `hpcpower profile report`/`diff` operate on.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::str::FromStr;

use crate::alloc::{AllocSnapshot, OVERFLOW_SLOT};
use crate::snapshot::escape_json;
use crate::timeline::{EventKind, TimelineSnapshot};

/// One node of the profile graph: a span name reached through one
/// specific chain of parent spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span name (the innermost frame of this path).
    pub name: String,
    /// Index of the parent node, or `None` for a root.
    pub parent: Option<usize>,
    /// Child node indices, sorted by child name.
    pub children: Vec<usize>,
    /// Completed spans observed on this path.
    pub count: u64,
    /// Inclusive wall time: sum of the observed span durations.
    pub total_ns: u64,
    /// Self wall time: inclusive time minus time spent in child spans.
    pub self_ns: u64,
    /// Bytes allocated while this path's innermost span was active
    /// (zero unless the allocation gate was on).
    pub alloc_bytes: u64,
    /// Allocations made while this path's innermost span was active.
    pub alloc_count: u64,
}

/// A profile graph aggregated from a [`TimelineSnapshot`].
#[derive(Debug, Clone, Default)]
pub struct ProfileGraph {
    /// All nodes; indices are stable and referenced by
    /// `parent`/`children`/[`ProfileGraph::roots`].
    pub nodes: Vec<ProfileNode>,
    /// Top-level node indices (spans with no enclosing span), sorted by
    /// name.
    pub roots: Vec<usize>,
    /// Inclusive wall time summed over the roots.
    pub total_ns: u64,
    /// Distinct thread ids that contributed events.
    pub threads: u64,
    /// Events consumed from the timeline.
    pub events: u64,
    /// Begin events whose end was never observed (ring wrap or spans
    /// still open at snapshot time); they contribute no time.
    pub orphan_begins: u64,
    /// End events whose begin was lost to ring wrap-around.
    pub orphan_ends: u64,
    /// Events the timeline ring dropped before the snapshot.
    pub dropped_events: u64,
    /// Allocation traffic that could not be matched to a node: the
    /// root slot (no span active), the overflow slot, and paths whose
    /// spans were lost to ring wrap.
    pub unattributed_alloc_bytes: u64,
    /// Allocation count that could not be matched to a node.
    pub unattributed_alloc_count: u64,
}

/// A replaying thread's open frame.
struct Frame {
    span_id: u64,
    node: usize,
    begin_ts: u64,
    child_ns: u64,
}

impl ProfileGraph {
    /// Builds the profile graph by replaying a timeline snapshot.
    ///
    /// Each thread's events replay against a private stack (span guards
    /// are LIFO within a thread); completed frames fold into the node
    /// keyed by their call path, which merges identical paths across
    /// threads. Deterministic: the snapshot's `(ts, seq)` order fully
    /// decides the result.
    pub fn from_timeline(snap: &TimelineSnapshot) -> ProfileGraph {
        let mut graph = ProfileGraph {
            events: snap.events.len() as u64,
            dropped_events: snap.dropped,
            ..ProfileGraph::default()
        };
        let mut lookup: HashMap<(Option<usize>, String), usize> = HashMap::new();
        let mut stacks: HashMap<u64, Vec<Frame>> = HashMap::new();
        for ev in &snap.events {
            let stack = stacks.entry(ev.tid).or_default();
            match ev.kind {
                EventKind::Begin => {
                    let parent = stack.last().map(|f| f.node);
                    let node = match lookup.entry((parent, ev.name.clone())) {
                        std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            let idx = graph.nodes.len();
                            graph.nodes.push(ProfileNode {
                                name: ev.name.clone(),
                                parent,
                                children: Vec::new(),
                                count: 0,
                                total_ns: 0,
                                self_ns: 0,
                                alloc_bytes: 0,
                                alloc_count: 0,
                            });
                            match parent {
                                Some(p) => graph.nodes[p].children.push(idx),
                                None => graph.roots.push(idx),
                            }
                            e.insert(idx);
                            idx
                        }
                    };
                    stack.push(Frame {
                        span_id: ev.span_id,
                        node,
                        begin_ts: ev.ts_ns,
                        child_ns: 0,
                    });
                }
                EventKind::End => {
                    // LIFO fast path with an out-of-order fallback,
                    // mirroring `export::chrome_trace`.
                    let pos = if stack.last().is_some_and(|f| f.span_id == ev.span_id) {
                        Some(stack.len() - 1)
                    } else {
                        stack.iter().rposition(|f| f.span_id == ev.span_id)
                    };
                    let Some(pos) = pos else {
                        graph.orphan_ends += 1;
                        continue;
                    };
                    let frame = stack.remove(pos);
                    let dur = ev.ts_ns.saturating_sub(frame.begin_ts);
                    let node = &mut graph.nodes[frame.node];
                    node.count += 1;
                    node.total_ns += dur;
                    node.self_ns += dur.saturating_sub(frame.child_ns);
                    if pos > 0 {
                        stack[pos - 1].child_ns += dur;
                    }
                }
            }
        }
        graph.orphan_begins = stacks.values().map(|s| s.len() as u64).sum();
        graph.threads = stacks.len() as u64;
        // Name-sorted traversal order makes every exporter
        // deterministic.
        let names: Vec<String> = graph.nodes.iter().map(|n| n.name.clone()).collect();
        for node in &mut graph.nodes {
            node.children.sort_by(|&a, &b| names[a].cmp(&names[b]));
        }
        graph.roots.sort_by(|&a, &b| names[a].cmp(&names[b]));
        graph.total_ns = graph.roots.iter().map(|&r| graph.nodes[r].total_ns).sum();
        graph
    }

    /// Folds an allocation snapshot into the graph: each slot's call
    /// path (see [`crate::alloc`]) is resolved against the node tree
    /// and its bytes/counts land on the matching node. Root-slot
    /// traffic (no span active), overflow-slot traffic, and paths
    /// whose spans were lost to ring wrap accumulate in the
    /// `unattributed_alloc_*` counters instead — never silently
    /// dropped.
    pub fn attach_alloc(&mut self, alloc: &AllocSnapshot) {
        for (i, slot) in alloc.slots.iter().enumerate() {
            if slot.alloc_bytes == 0 && slot.alloc_count == 0 {
                continue;
            }
            let path = alloc.slot_path(i as u32);
            let resolved = if path.is_empty() || i == OVERFLOW_SLOT as usize {
                None
            } else {
                self.resolve_path(&path)
            };
            match resolved {
                Some(n) => {
                    self.nodes[n].alloc_bytes += slot.alloc_bytes;
                    self.nodes[n].alloc_count += slot.alloc_count;
                }
                None => {
                    self.unattributed_alloc_bytes += slot.alloc_bytes;
                    self.unattributed_alloc_count += slot.alloc_count;
                }
            }
        }
    }

    /// Node index reached by walking `path` names from the roots.
    fn resolve_path(&self, path: &[String]) -> Option<usize> {
        let mut cur: Option<usize> = None;
        for name in path {
            let children = match cur {
                None => &self.roots,
                Some(n) => &self.nodes[n].children,
            };
            cur = Some(*children.iter().find(|&&c| self.nodes[c].name == *name)?);
        }
        cur
    }

    /// Bytes attributed to nodes (excludes the unattributed bucket).
    pub fn attributed_alloc_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.alloc_bytes).sum()
    }

    /// Depth-first node order (children by name), with the frame depth
    /// of each node. The traversal every exporter shares.
    fn dfs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut todo: Vec<(usize, usize)> = self.roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((n, depth)) = todo.pop() {
            out.push((n, depth));
            for &c in self.nodes[n].children.iter().rev() {
                todo.push((c, depth + 1));
            }
        }
        out
    }

    /// The names along `node`'s call path, outermost first.
    pub fn path_of(&self, node: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            rev.push(self.nodes[n].name.clone());
            cur = self.nodes[n].parent;
        }
        rev.reverse();
        rev
    }

    /// Renders collapsed-stack ("folded") text: one
    /// `frame;frame;... self_ns` line per node with nonzero self time,
    /// in depth-first name order. The value is the **self** wall time
    /// in nanoseconds, which is what flamegraph tooling expects.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (n, _) in self.dfs() {
            let node = &self.nodes[n];
            if node.self_ns == 0 {
                continue;
            }
            let path: Vec<String> = self.path_of(n).iter().map(|s| sanitize_frame(s)).collect();
            let _ = writeln!(out, "{} {}", path.join(";"), node.self_ns);
        }
        out
    }

    /// Renders speedscope JSON (<https://speedscope.app>): a shared
    /// frame table plus two `"sampled"` profiles over it — wall
    /// nanoseconds and allocated bytes — one weighted sample per node
    /// with a nonzero self value.
    pub fn to_speedscope(&self) -> String {
        // One shared frame per distinct span name, in sorted order.
        let mut names: Vec<&str> = self.nodes.iter().map(|n| n.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let frame_idx: HashMap<&str, usize> =
            names.iter().enumerate().map(|(i, &n)| (n, i)).collect();

        let sample_of = |n: usize| -> String {
            let idx: Vec<String> = self
                .path_of(n)
                .iter()
                .map(|name| frame_idx[name.as_str()].to_string())
                .collect();
            format!("[{}]", idx.join(","))
        };
        let mut wall_samples = Vec::new();
        let mut wall_weights = Vec::new();
        let mut alloc_samples = Vec::new();
        let mut alloc_weights = Vec::new();
        for (n, _) in self.dfs() {
            let node = &self.nodes[n];
            if node.self_ns > 0 {
                wall_samples.push(sample_of(n));
                wall_weights.push(node.self_ns.to_string());
            }
            if node.alloc_bytes > 0 {
                alloc_samples.push(sample_of(n));
                alloc_weights.push(node.alloc_bytes.to_string());
            }
        }
        let wall_total: u64 = self.nodes.iter().map(|n| n.self_ns).sum();
        let alloc_total = self.attributed_alloc_bytes();

        let mut out = String::from(
            "{\n\"$schema\": \"https://www.speedscope.app/file-format-schema.json\",\n",
        );
        out.push_str("\"name\": \"hpcpower profile\",\n\"exporter\": \"hpcpower-obs\",\n");
        out.push_str("\"activeProfileIndex\": 0,\n\"shared\": {\"frames\": [");
        for (i, name) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n  {{\"name\": \"{}\"}}", escape_json(name));
        }
        out.push_str("\n]},\n\"profiles\": [\n");
        for (i, (pname, unit, total, samples, weights)) in [
            (
                "wall time",
                "nanoseconds",
                wall_total,
                &wall_samples,
                &wall_weights,
            ),
            (
                "allocated bytes",
                "bytes",
                alloc_total,
                &alloc_samples,
                &alloc_weights,
            ),
        ]
        .iter()
        .enumerate()
        {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}  {{\"type\": \"sampled\", \"name\": \"{pname}\", \"unit\": \"{unit}\", \
                 \"startValue\": 0, \"endValue\": {total}, \"samples\": [{}], \"weights\": [{}]}}",
                samples.join(","),
                weights.join(",")
            );
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Renders a self-contained flamegraph SVG: one rectangle per node,
    /// width proportional to inclusive wall time, hover `<title>`
    /// tooltips with count/total/self/alloc detail, no scripts or
    /// external assets. Valid XML for any span-name bytes — names are
    /// escaped.
    pub fn to_svg(&self) -> String {
        const WIDTH: f64 = 1200.0;
        const MARGIN: f64 = 6.0;
        const ROW_H: f64 = 17.0;
        const HEADER_H: f64 = 26.0;
        let max_depth = self
            .dfs()
            .iter()
            .map(|&(_, d)| d)
            .max()
            .map_or(0, |d| d + 1);
        let height = HEADER_H + max_depth as f64 * ROW_H + MARGIN * 2.0;
        let usable = WIDTH - MARGIN * 2.0;
        let px_per_ns = if self.total_ns > 0 {
            usable / self.total_ns as f64
        } else {
            0.0
        };

        let mut out = String::new();
        let _ = writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
             viewBox=\"0 0 {WIDTH} {height}\" font-family=\"monospace\" font-size=\"11\">"
        );
        let _ = writeln!(
            out,
            "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height}\" fill=\"#fdf6ec\"/>"
        );
        let _ = writeln!(
            out,
            "<text x=\"{MARGIN}\" y=\"17\" font-size=\"13\">hpcpower flamegraph \
             &#8212; total {} across {} node(s), {} thread(s){}</text>",
            fmt_ns(self.total_ns),
            self.nodes.len(),
            self.threads,
            if self.orphan_begins + self.orphan_ends > 0 {
                format!(
                    ", {} orphan event(s)",
                    self.orphan_begins + self.orphan_ends
                )
            } else {
                String::new()
            }
        );

        // Walk the tree assigning x offsets: children pack
        // left-to-right from their parent's left edge.
        let mut x_of: Vec<f64> = vec![0.0; self.nodes.len()];
        let mut cursor_roots = MARGIN;
        for &r in &self.roots {
            x_of[r] = cursor_roots;
            cursor_roots += self.nodes[r].total_ns as f64 * px_per_ns;
        }
        for (n, depth) in self.dfs() {
            let node = &self.nodes[n];
            let mut cursor = x_of[n];
            for &c in &node.children {
                x_of[c] = cursor;
                cursor += self.nodes[c].total_ns as f64 * px_per_ns;
            }
            let w = node.total_ns as f64 * px_per_ns;
            if w < 0.2 {
                continue;
            }
            let x = x_of[n];
            let y = HEADER_H + depth as f64 * ROW_H + MARGIN;
            let name = xml_escape(&node.name);
            let _ = writeln!(
                out,
                "<g><title>{name}: {} call(s), total {}, self {}{}</title>\
                 <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
                 fill=\"{}\" stroke=\"#fdf6ec\" stroke-width=\"0.5\"/>{}</g>",
                node.count,
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns),
                if node.alloc_bytes > 0 {
                    format!(
                        ", alloc {} in {} allocation(s)",
                        fmt_bytes(node.alloc_bytes),
                        node.alloc_count
                    )
                } else {
                    String::new()
                },
                w,
                ROW_H - 1.0,
                color_for(&node.name),
                if w >= 28.0 {
                    let fit = ((w - 6.0) / 6.7) as usize;
                    let label: String = if node.name.len() > fit {
                        node.name
                            .chars()
                            .take(fit.saturating_sub(2))
                            .collect::<String>()
                            + ".."
                    } else {
                        node.name.clone()
                    };
                    format!(
                        "<text x=\"{:.2}\" y=\"{:.2}\">{}</text>",
                        x + 3.0,
                        y + ROW_H - 5.0,
                        xml_escape(&label)
                    )
                } else {
                    String::new()
                }
            );
        }
        out.push_str("</svg>\n");
        out
    }

    /// Flattens the graph into path/value rows (the in-memory form of
    /// the folded export, plus alloc bytes).
    pub fn flatten(&self) -> FlatProfile {
        let entries = self
            .dfs()
            .into_iter()
            .filter_map(|(n, _)| {
                let node = &self.nodes[n];
                (node.self_ns > 0 || node.alloc_bytes > 0).then(|| FlatEntry {
                    stack: self.path_of(n),
                    self_ns: node.self_ns,
                    self_bytes: node.alloc_bytes,
                })
            })
            .collect();
        FlatProfile { entries }
    }
}

/// Replaces the frame-separator and token-separator characters that
/// the folded format reserves.
fn sanitize_frame(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_whitespace() || c.is_control() => '_',
            c => c,
        })
        .collect()
}

/// Escapes text for an XML attribute/element context.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic warm flamegraph color from an FNV-1a hash of the
/// name.
fn color_for(name: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    let r = 200 + (h % 56) as u32;
    let g = 60 + ((h >> 8) % 120) as u32;
    let b = 20 + ((h >> 16) % 40) as u32;
    format!("rgb({r},{g},{b})")
}

fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2}MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1}KiB", b / KIB)
    } else {
        format!("{b:.0}B")
    }
}

/// Output format of a rendered profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileFormat {
    /// Collapsed-stack text (`a;b;c self_ns` per line).
    #[default]
    Folded,
    /// Self-contained flamegraph SVG.
    Svg,
    /// Speedscope JSON (wall-time + allocated-bytes profiles).
    Speedscope,
}

impl FromStr for ProfileFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "folded" | "collapsed" => Ok(ProfileFormat::Folded),
            "svg" | "flamegraph" => Ok(ProfileFormat::Svg),
            "speedscope" => Ok(ProfileFormat::Speedscope),
            other => Err(format!(
                "unknown profile format '{other}' (expected 'folded', 'svg', or 'speedscope')"
            )),
        }
    }
}

impl ProfileFormat {
    /// Infers a format from a file path's extension: `.svg` renders the
    /// flamegraph, `.json`/`.speedscope` the speedscope document,
    /// anything else the folded text.
    pub fn infer(path: &str) -> ProfileFormat {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".svg") {
            ProfileFormat::Svg
        } else if lower.ends_with(".json") || lower.ends_with(".speedscope") {
            ProfileFormat::Speedscope
        } else {
            ProfileFormat::Folded
        }
    }
}

/// Renders a profile graph in the given format.
pub fn render_profile(graph: &ProfileGraph, format: ProfileFormat) -> String {
    match format {
        ProfileFormat::Folded => graph.to_folded(),
        ProfileFormat::Svg => graph.to_svg(),
        ProfileFormat::Speedscope => graph.to_speedscope(),
    }
}

/// One call path with its self values — a parsed folded line or
/// speedscope sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatEntry {
    /// Frame names, outermost first.
    pub stack: Vec<String>,
    /// Self wall time, nanoseconds.
    pub self_ns: u64,
    /// Self allocated bytes (zero for folded input, which carries no
    /// byte dimension).
    pub self_bytes: u64,
}

/// A parsed profile: path/value rows, the common denominator of the
/// folded and speedscope formats. What `profile report`/`diff`
/// consume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatProfile {
    /// Rows in file order; paths are unique after parsing (duplicate
    /// paths merge by summing).
    pub entries: Vec<FlatEntry>,
}

impl FlatProfile {
    /// Total self wall time across all rows.
    pub fn total_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.self_ns).sum()
    }

    /// Total self allocated bytes across all rows.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.self_bytes).sum()
    }

    /// Whether any row carries allocated bytes. Folded input never
    /// does: the format has no byte dimension.
    pub fn has_bytes(&self) -> bool {
        self.entries.iter().any(|e| e.self_bytes > 0)
    }

    /// Parses a profile file, auto-detecting the format: a document
    /// starting with `{` is speedscope JSON, anything else is folded
    /// text. (SVG output is render-only and rejected here.)
    pub fn parse(text: &str) -> Result<FlatProfile, String> {
        let trimmed = text.trim_start();
        if trimmed.starts_with('<') {
            return Err(
                "this looks like an SVG flamegraph; `profile report`/`diff` read \
                 folded or speedscope profiles"
                    .to_string(),
            );
        }
        if trimmed.starts_with('{') {
            Self::from_speedscope(text)
        } else {
            Self::from_folded(text)
        }
    }

    /// Parses collapsed-stack text (`frame;frame;... value` per line).
    pub fn from_folded(text: &str) -> Result<FlatProfile, String> {
        let mut out = FlatProfile::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (stack_str, value_str) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("folded line {}: missing value: {line:?}", i + 1))?;
            let value: u64 = value_str
                .parse()
                .map_err(|_| format!("folded line {}: bad value {value_str:?}", i + 1))?;
            let stack: Vec<String> = stack_str.split(';').map(str::to_string).collect();
            if stack.iter().any(String::is_empty) {
                return Err(format!(
                    "folded line {}: empty frame in {stack_str:?}",
                    i + 1
                ));
            }
            out.push_merged(stack, value, 0);
        }
        Ok(out)
    }

    /// Parses a speedscope JSON document written by
    /// [`ProfileGraph::to_speedscope`] (or any `"sampled"` speedscope
    /// profile): nanosecond-unit profiles fill `self_ns`, byte-unit
    /// profiles fill `self_bytes`, matched rows merge by stack.
    pub fn from_speedscope(text: &str) -> Result<FlatProfile, String> {
        let doc = serde_json::parse(text).map_err(|e| format!("speedscope document: {e}"))?;
        let top = doc
            .as_object()
            .ok_or("speedscope document: top level is not an object")?;
        let frames = serde_json::find(top, "shared")
            .and_then(|s| s.as_object())
            .and_then(|s| serde_json::find(s, "frames"))
            .and_then(|f| f.as_array())
            .ok_or("speedscope document: missing shared.frames")?;
        let frame_names: Vec<String> = frames
            .iter()
            .map(|f| {
                f.as_object()
                    .and_then(|o| serde_json::find(o, "name"))
                    .and_then(|n| n.as_str())
                    .map(str::to_string)
                    .ok_or("speedscope document: frame without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        let profiles = serde_json::find(top, "profiles")
            .and_then(|p| p.as_array())
            .ok_or("speedscope document: missing profiles")?;
        let mut out = FlatProfile::default();
        for profile in profiles {
            let p = profile
                .as_object()
                .ok_or("speedscope document: profile is not an object")?;
            let unit = serde_json::find(p, "unit")
                .and_then(|u| u.as_str())
                .unwrap_or("");
            let is_bytes = unit == "bytes";
            let samples = serde_json::find(p, "samples")
                .and_then(|s| s.as_array())
                .ok_or("speedscope document: profile without samples")?;
            let weights = serde_json::find(p, "weights")
                .and_then(|w| w.as_array())
                .ok_or("speedscope document: profile without weights")?;
            if samples.len() != weights.len() {
                return Err("speedscope document: samples/weights length mismatch".to_string());
            }
            for (sample, weight) in samples.iter().zip(weights) {
                let idxs = sample
                    .as_array()
                    .ok_or("speedscope document: sample is not an array")?;
                let stack: Vec<String> = idxs
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|i| frame_names.get(i as usize).cloned())
                            .ok_or(
                                "speedscope document: sample frame index out of range".to_string(),
                            )
                    })
                    .collect::<Result<_, _>>()?;
                let w = weight
                    .as_f64()
                    .ok_or("speedscope document: weight is not a number")?
                    .max(0.0) as u64;
                if is_bytes {
                    out.push_merged(stack, 0, w);
                } else {
                    out.push_merged(stack, w, 0);
                }
            }
        }
        Ok(out)
    }

    /// Row for `stack`, merging into an existing row when the path was
    /// seen before.
    fn push_merged(&mut self, stack: Vec<String>, self_ns: u64, self_bytes: u64) {
        match self.entries.iter_mut().find(|e| e.stack == stack) {
            Some(e) => {
                e.self_ns += self_ns;
                e.self_bytes += self_bytes;
            }
            None => self.entries.push(FlatEntry {
                stack,
                self_ns,
                self_bytes,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Graph construction and exporter behaviour on synthetic timelines
    // live in `tests/profile_export.rs`; here we pin the pure helpers.

    #[test]
    fn profile_format_parses_and_infers() {
        assert_eq!(
            "folded".parse::<ProfileFormat>().unwrap(),
            ProfileFormat::Folded
        );
        assert_eq!("svg".parse::<ProfileFormat>().unwrap(), ProfileFormat::Svg);
        assert_eq!(
            "speedscope".parse::<ProfileFormat>().unwrap(),
            ProfileFormat::Speedscope
        );
        assert!("perf".parse::<ProfileFormat>().is_err());
        assert_eq!(ProfileFormat::infer("out/profile.svg"), ProfileFormat::Svg);
        assert_eq!(ProfileFormat::infer("p.json"), ProfileFormat::Speedscope);
        assert_eq!(ProfileFormat::infer("p.folded"), ProfileFormat::Folded);
    }

    #[test]
    fn folded_parse_round_trips_and_merges_duplicates() {
        let text = "a;b 10\na 5\na;b 2\n";
        let p = FlatProfile::from_folded(text).unwrap();
        assert_eq!(p.entries.len(), 2);
        assert_eq!(p.entries[0].stack, vec!["a", "b"]);
        assert_eq!(p.entries[0].self_ns, 12, "duplicate paths merge");
        assert_eq!(p.total_ns(), 17);
        assert!(FlatProfile::from_folded("a;b ten\n").is_err());
        assert!(FlatProfile::from_folded("noval\n").is_err());
    }

    #[test]
    fn sanitize_and_escape_helpers() {
        assert_eq!(sanitize_frame("a;b c\nd"), "a:b_c_d");
        assert_eq!(xml_escape("a<b&\"c'"), "a&lt;b&amp;&quot;c&apos;");
        assert_eq!(color_for("x"), color_for("x"), "colors are deterministic");
    }

    #[test]
    fn parse_rejects_svg_input() {
        assert!(FlatProfile::parse("<svg></svg>").is_err());
    }
}
