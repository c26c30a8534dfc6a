//! The event timeline: a bounded, lock-sharded ring buffer of span
//! begin/end events.
//!
//! Aggregates (see [`crate::registry`]) answer "how much time was spent
//! in `sim.simulate`?"; the timeline answers "what did the schedule
//! *look like*?" — it records every span open and close as an
//! individual event with a monotonic timestamp, a stable thread id, a
//! unique span id, and the id of the enclosing span on the same thread.
//! [`crate::export::chrome_trace`] renders the recorded events as
//! Chrome trace-event JSON loadable in Perfetto / `chrome://tracing`.
//!
//! ## Ring sizing and drop semantics
//!
//! The buffer is bounded: [`DEFAULT_CAPACITY`] events split evenly over
//! [`SHARDS`] lock shards (a thread always writes to the shard
//! `tid % SHARDS`, so per-thread event order is preserved within a
//! shard). When a shard's ring is full, the *oldest* event in that
//! shard is overwritten and the shard's drop counter increments —
//! truncation is never silent: [`TimelineSnapshot::dropped`] reports
//! the total, and the Chrome exporter embeds it in the trace metadata.
//! The global timeline's capacity can be overridden once at process
//! start with the `HPCPOWER_OBS_TIMELINE_CAPACITY` environment
//! variable.
//!
//! Recording is gated by its own flag ([`Timeline::set_enabled`],
//! reachable via [`crate::enable_timeline`]) *in addition to* the
//! registry's: timelines cost two events and one shard lock per span,
//! so they stay off unless an exporter (e.g. the CLI's `--trace-out`)
//! asked for them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Number of lock shards. A thread always records into
/// `tid % SHARDS`, so contention is bounded by threads-per-shard.
pub const SHARDS: usize = 8;

/// Default total event capacity of the global timeline (split evenly
/// across shards). Two events per span — the default holds the last
/// ~32k completed spans.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// What an event marks: a span opening or closing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The span was entered.
    Begin,
    /// The span guard dropped.
    End,
}

/// One recorded span begin/end event.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Begin or End.
    pub kind: EventKind,
    /// Span name (shared with the aggregate registry's key space).
    pub name: String,
    /// Nanoseconds since the process-wide monotonic epoch; comparable
    /// across threads.
    pub ts_ns: u64,
    /// Stable small integer id of the recording thread.
    pub tid: u64,
    /// Unique id of the span this event belongs to (its Begin and End
    /// share it).
    pub span_id: u64,
    /// Span id of the enclosing span on the same thread, if any.
    pub parent_id: Option<u64>,
    /// Global record sequence number — breaks timestamp ties when
    /// sorting.
    pub seq: u64,
}

/// A frozen copy of the timeline's contents.
#[derive(Debug, Clone, Default)]
pub struct TimelineSnapshot {
    /// Events sorted by `(ts_ns, seq)`.
    pub events: Vec<TimelineEvent>,
    /// Events overwritten by ring wrap-around since the last reset.
    pub dropped: u64,
}

#[derive(Debug)]
struct Shard {
    /// Ring storage; grows up to `cap`, then wraps.
    buf: Vec<TimelineEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TimelineEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// A bounded, lock-sharded span event recorder.
#[derive(Debug)]
pub struct Timeline {
    enabled: std::sync::atomic::AtomicBool,
    shards: Vec<Mutex<Shard>>,
    next_seq: AtomicU64,
}

fn lock(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // Same policy as the registry: telemetry must never take the
    // process down on a poisoned lock.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for Timeline {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Timeline {
    /// Creates a disabled timeline holding at most `capacity` events
    /// (at least one per shard).
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = (capacity / SHARDS).max(1);
        Self {
            enabled: std::sync::atomic::AtomicBool::new(false),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Whether event recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns event recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records one event now, on the current thread. No-op when
    /// disabled.
    pub fn record(&self, kind: EventKind, name: &str, span_id: u64, parent_id: Option<u64>) {
        if !self.is_enabled() {
            return;
        }
        let tid = current_tid();
        let ev = TimelineEvent {
            kind,
            name: name.to_string(),
            ts_ns: now_ns(),
            tid,
            span_id,
            parent_id,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
        };
        lock(&self.shards[(tid as usize) % SHARDS]).push(ev);
    }

    /// Copies out every retained event, sorted by `(ts_ns, seq)`, with
    /// the total number of events lost to ring wrap-around.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let mut events = Vec::new();
        let mut dropped = 0;
        for shard in &self.shards {
            let s = lock(shard);
            events.extend(s.buf.iter().cloned());
            dropped += s.dropped;
        }
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        TimelineSnapshot { events, dropped }
    }

    /// Clears all retained events and the drop counters (the enabled
    /// flag is left as is).
    pub fn reset(&self) {
        for shard in &self.shards {
            let mut s = lock(shard);
            s.buf.clear();
            s.head = 0;
            s.dropped = 0;
        }
    }
}

static GLOBAL_TIMELINE: OnceLock<Timeline> = OnceLock::new();

/// The process-wide timeline every span guard reports to.
///
/// Capacity is [`DEFAULT_CAPACITY`] unless the
/// `HPCPOWER_OBS_TIMELINE_CAPACITY` environment variable overrides it
/// (read once, on first use).
pub fn global_timeline() -> &'static Timeline {
    GLOBAL_TIMELINE.get_or_init(|| {
        let cap = std::env::var("HPCPOWER_OBS_TIMELINE_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAPACITY);
        Timeline::with_capacity(cap)
    })
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic epoch (the first call
/// to any timeline entry point).
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Stable small integer id of the current thread (assigned on first
/// use, never reused within a process).
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id.
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_span(t: &Timeline, name: &str, parent: Option<u64>) -> u64 {
        let id = next_span_id();
        t.record(EventKind::Begin, name, id, parent);
        t.record(EventKind::End, name, id, parent);
        id
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let t = Timeline::with_capacity(64);
        record_span(&t, "x", None);
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn events_carry_ids_and_monotonic_timestamps() {
        let t = Timeline::with_capacity(64);
        t.set_enabled(true);
        let outer = record_span(&t, "outer", None);
        let inner = record_span(&t, "inner", Some(outer));
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert!(snap
            .events
            .windows(2)
            .all(|w| { (w[0].ts_ns, w[0].seq) <= (w[1].ts_ns, w[1].seq) }));
        let begin_inner = snap
            .events
            .iter()
            .find(|e| e.name == "inner" && e.kind == EventKind::Begin)
            .unwrap();
        assert_eq!(begin_inner.span_id, inner);
        assert_eq!(begin_inner.parent_id, Some(outer));
        assert_eq!(begin_inner.tid, current_tid());
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        // Single-thread test: all events land in one shard, whose
        // capacity is 32/SHARDS = 4 events.
        let t = Timeline::with_capacity(32);
        t.set_enabled(true);
        for i in 0..10 {
            let id = next_span_id();
            t.record(EventKind::Begin, &format!("s{i}"), id, None);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4, "ring retains shard capacity");
        assert_eq!(snap.dropped, 6, "every overwrite is counted");
        // The survivors are the newest events.
        assert!(snap.events.iter().any(|e| e.name == "s9"));
        assert!(!snap.events.iter().any(|e| e.name == "s0"));
    }

    #[test]
    fn reset_clears_events_and_drop_counter() {
        let t = Timeline::with_capacity(8);
        t.set_enabled(true);
        for _ in 0..20 {
            record_span(&t, "x", None);
        }
        assert!(t.snapshot().dropped > 0);
        t.reset();
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
        assert!(t.is_enabled(), "reset must not flip the enabled flag");
    }

    #[test]
    fn concurrent_recording_is_safe_and_complete_under_capacity() {
        let t = std::sync::Arc::new(Timeline::with_capacity(100_000));
        t.set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        record_span(&t, "worker", None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4 * 500 * 2);
        assert_eq!(snap.dropped, 0);
    }
}
