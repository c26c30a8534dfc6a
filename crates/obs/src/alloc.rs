//! Opt-in allocation profiling: a `#[global_allocator]` wrapper that
//! attributes heap traffic to the innermost active span.
//!
//! [`ProfiledAllocator`] wraps [`std::alloc::System`]. Binaries that
//! want allocation attribution install it once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hpcpower_obs::ProfiledAllocator = hpcpower_obs::ProfiledAllocator;
//! ```
//!
//! Recording is behind its own enable gate (the third one, next to the
//! registry and timeline gates): with the gate off — the
//! default — every allocator call costs the underlying `System` call
//! plus **one relaxed atomic load**, asserted by
//! `tests/overhead.rs`. Installing the wrapper in a binary that never
//! enables profiling is therefore free in practice.
//!
//! ## Attribution model
//!
//! Spans double as the logical call stack (see [`crate::profile`]).
//! Every *call path* of span names gets a **slot**: a fixed-size row of
//! atomics holding alloc/dealloc counts and bytes. A thread-local cell
//! carries the slot of the innermost active span; [`SpanGuard`]
//! (`crate::span::SpanGuard`) switches it on enter/drop when the gate
//! is on. The allocator's hot path only reads that cell and bumps
//! atomics — it never takes a lock, allocates, or touches lazy-init
//! thread-local state, so it cannot recurse or deadlock. Slot-table
//! mutation (interning a new `(parent, name)` path) happens in the span
//! guard, outside the allocator.
//!
//! The slot table is bounded ([`MAX_SLOTS`]); once full, new paths
//! collapse into a dedicated overflow slot, so attribution degrades
//! gracefully instead of growing without bound. Slot 0 is the root:
//! allocations made outside any span (or on threads with no span
//! active).
//!
//! Totals (`alloc`/`dealloc` counts and bytes, live bytes, high-water
//! peak) are process-wide atomics; [`crate::snapshot`] surfaces them as
//! `obs.alloc.*` metrics when the gate is enabled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum number of distinct span call paths that get their own
/// attribution slot; paths beyond this collapse into the overflow
/// slot.
pub const MAX_SLOTS: usize = 512;

/// Slot index of the root (no span active).
pub const ROOT_SLOT: u32 = 0;

/// Slot index that absorbs paths once the table is full.
pub const OVERFLOW_SLOT: u32 = 1;

static ENABLED: AtomicBool = AtomicBool::new(false);

static TOTAL_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_DEALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static TOTAL_DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Live (allocated-minus-freed) bytes observed since enable. Signed:
/// frees of blocks allocated before the gate came on would otherwise
/// underflow.
static CURRENT_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Per-slot attribution counters. Fixed-size atomics so the allocator
/// path is bounds-check plus `fetch_add`, never a resize.
struct SlotStat {
    alloc_count: AtomicU64,
    alloc_bytes: AtomicU64,
    dealloc_count: AtomicU64,
    dealloc_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_STAT_INIT: SlotStat = SlotStat {
    alloc_count: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
    dealloc_count: AtomicU64::new(0),
    dealloc_bytes: AtomicU64::new(0),
};

static SLOT_STATS: [SlotStat; MAX_SLOTS] = [SLOT_STAT_INIT; MAX_SLOTS];

/// Interned call paths: `(parent_slot, span name) -> slot`. Mutated
/// only from span-guard code (never from the allocator), so the lock
/// is safe to take there.
struct SlotTable {
    /// `slots[i] = (name, parent_slot)`; indices 0 and 1 are the
    /// reserved root and overflow slots.
    slots: Vec<(String, u32)>,
    lookup: HashMap<(u32, String), u32>,
}

fn slot_table() -> &'static Mutex<SlotTable> {
    static TABLE: std::sync::OnceLock<Mutex<SlotTable>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(SlotTable {
            slots: vec![
                ("(root)".to_string(), ROOT_SLOT),
                ("(overflow)".to_string(), ROOT_SLOT),
            ],
            lookup: HashMap::new(),
        })
    })
}

thread_local! {
    // const-init: reading this from the allocator must never allocate
    // or run lazy initialization.
    static CURRENT_SLOT: Cell<u32> = const { Cell::new(ROOT_SLOT) };
}

/// Whether allocation profiling is recording (default: off).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns allocation recording on or off. Only has an observable effect
/// in binaries that installed [`ProfiledAllocator`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Slot carried by the current thread for the innermost active span.
#[inline]
pub(crate) fn current_slot() -> u32 {
    // try_with: the allocator can run during thread teardown, after the
    // thread-local was dropped — attribute to the root then.
    CURRENT_SLOT.try_with(Cell::get).unwrap_or(ROOT_SLOT)
}

/// Switches the current thread's attribution slot to the child path
/// `(current, name)`, interning it if new, and returns the previous
/// slot for the caller to restore. Called from span-guard enter when
/// the gate is on.
pub(crate) fn enter_scope(name: &str) -> u32 {
    let prev = CURRENT_SLOT.try_with(Cell::get).unwrap_or(ROOT_SLOT);
    let child = slot_for(prev, name);
    let _ = CURRENT_SLOT.try_with(|c| c.set(child));
    prev
}

/// Restores the attribution slot saved by [`enter_scope`]. Called from
/// span-guard drop.
pub(crate) fn restore_scope(slot: u32) {
    let _ = CURRENT_SLOT.try_with(|c| c.set(slot));
}

fn slot_for(parent: u32, name: &str) -> u32 {
    let mut table = slot_table()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&slot) = table.lookup.get(&(parent, name.to_string())) {
        return slot;
    }
    if table.slots.len() >= MAX_SLOTS {
        return OVERFLOW_SLOT;
    }
    let slot = table.slots.len() as u32;
    table.slots.push((name.to_string(), parent));
    table.lookup.insert((parent, name.to_string()), slot);
    slot
}

#[inline]
fn record_alloc(size: usize) {
    let size = size as u64;
    TOTAL_ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    let cur = CURRENT_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    let mut peak = PEAK_BYTES.load(Ordering::Relaxed);
    while cur > peak {
        match PEAK_BYTES.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
    let slot = current_slot() as usize;
    let stat = &SLOT_STATS[slot.min(MAX_SLOTS - 1)];
    stat.alloc_count.fetch_add(1, Ordering::Relaxed);
    stat.alloc_bytes.fetch_add(size, Ordering::Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    let size = size as u64;
    TOTAL_DEALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_DEALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    CURRENT_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    let slot = current_slot() as usize;
    let stat = &SLOT_STATS[slot.min(MAX_SLOTS - 1)];
    stat.dealloc_count.fetch_add(1, Ordering::Relaxed);
    stat.dealloc_bytes.fetch_add(size, Ordering::Relaxed);
}

/// A `#[global_allocator]` wrapper over [`System`] that attributes
/// heap traffic to the innermost active span when the allocation gate
/// is enabled (see the module docs for the install snippet and the
/// disabled-cost contract).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfiledAllocator;

// SAFETY: delegates every allocation verbatim to `System`; the
// recording side touches only atomics and a const-init thread-local,
// so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for ProfiledAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && is_enabled() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && is_enabled() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if is_enabled() {
            record_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && is_enabled() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// Frozen per-slot attribution counters plus the path metadata needed
/// to map them back onto a span call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Span name of the innermost frame of this path (`"(root)"` /
    /// `"(overflow)"` for the reserved slots).
    pub name: String,
    /// Slot index of the enclosing path (the root slot points at
    /// itself).
    pub parent: u32,
    /// Allocations attributed to this path.
    pub alloc_count: u64,
    /// Bytes allocated under this path.
    pub alloc_bytes: u64,
    /// Deallocations attributed to this path.
    pub dealloc_count: u64,
    /// Bytes freed under this path.
    pub dealloc_bytes: u64,
}

/// Frozen view of the allocation profiler: process-wide totals plus
/// the per-call-path slots.
#[derive(Debug, Clone, Default)]
pub struct AllocSnapshot {
    /// Whether the gate was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Total allocations recorded.
    pub alloc_count: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total deallocations recorded.
    pub dealloc_count: u64,
    /// Total bytes freed.
    pub dealloc_bytes: u64,
    /// Live bytes (allocated minus freed, clamped at 0 — frees of
    /// pre-gate blocks can push the raw balance negative).
    pub current_bytes: u64,
    /// High-water mark of live bytes since enable/reset.
    pub peak_bytes: u64,
    /// Per-call-path attribution, indexed by slot (0 = root,
    /// 1 = overflow).
    pub slots: Vec<SlotSnapshot>,
}

impl AllocSnapshot {
    /// The names along slot `i`'s call path, outermost first (the
    /// reserved root frame is omitted). Empty for the root slot;
    /// `["(overflow)"]` for the overflow slot.
    pub fn slot_path(&self, mut i: u32) -> Vec<String> {
        let mut rev = Vec::new();
        while i != ROOT_SLOT {
            let Some(slot) = self.slots.get(i as usize) else {
                break;
            };
            rev.push(slot.name.clone());
            i = slot.parent;
        }
        rev.reverse();
        rev
    }
}

/// Takes a frozen copy of the allocation profiler's state.
pub fn snapshot() -> AllocSnapshot {
    let table = slot_table()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let slots = table
        .slots
        .iter()
        .enumerate()
        .map(|(i, (name, parent))| {
            let stat = &SLOT_STATS[i];
            SlotSnapshot {
                name: name.clone(),
                parent: *parent,
                alloc_count: stat.alloc_count.load(Ordering::Relaxed),
                alloc_bytes: stat.alloc_bytes.load(Ordering::Relaxed),
                dealloc_count: stat.dealloc_count.load(Ordering::Relaxed),
                dealloc_bytes: stat.dealloc_bytes.load(Ordering::Relaxed),
            }
        })
        .collect();
    AllocSnapshot {
        enabled: is_enabled(),
        alloc_count: TOTAL_ALLOC_COUNT.load(Ordering::Relaxed),
        alloc_bytes: TOTAL_ALLOC_BYTES.load(Ordering::Relaxed),
        dealloc_count: TOTAL_DEALLOC_COUNT.load(Ordering::Relaxed),
        dealloc_bytes: TOTAL_DEALLOC_BYTES.load(Ordering::Relaxed),
        current_bytes: CURRENT_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
        slots,
    }
}

/// `(alloc_count, alloc_bytes)` so far — cheap to read around a stage
/// boundary for delta accounting (the bench harness does this).
pub fn totals() -> (u64, u64) {
    (
        TOTAL_ALLOC_COUNT.load(Ordering::Relaxed),
        TOTAL_ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// High-water mark of live bytes since enable or the last
/// [`reset_peak`]/[`reset`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64
}

/// Re-arms the high-water mark at the current live-byte level, so the
/// next read reports the peak of the region that follows.
pub fn reset_peak() {
    PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Zeroes every counter (totals and per-slot) and re-arms the peak at
/// the current live level. The slot table's interned paths are kept so
/// slot ids cached in thread-locals stay valid.
pub fn reset() {
    TOTAL_ALLOC_COUNT.store(0, Ordering::Relaxed);
    TOTAL_ALLOC_BYTES.store(0, Ordering::Relaxed);
    TOTAL_DEALLOC_COUNT.store(0, Ordering::Relaxed);
    TOTAL_DEALLOC_BYTES.store(0, Ordering::Relaxed);
    reset_peak();
    for stat in &SLOT_STATS {
        stat.alloc_count.store(0, Ordering::Relaxed);
        stat.alloc_bytes.store(0, Ordering::Relaxed);
        stat.dealloc_count.store(0, Ordering::Relaxed);
        stat.dealloc_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator itself is exercised end-to-end in
    // `tests/alloc_profile.rs` (a dedicated binary that installs
    // `ProfiledAllocator`); here we cover the slot table and snapshot
    // plumbing, which work without the installed allocator.

    #[test]
    fn slot_paths_intern_and_walk_back() {
        let a = slot_for(ROOT_SLOT, "alloc.unit.outer");
        let b = slot_for(a, "alloc.unit.inner");
        assert_eq!(slot_for(ROOT_SLOT, "alloc.unit.outer"), a, "interned");
        assert_ne!(a, b);
        let snap = snapshot();
        assert_eq!(
            snap.slot_path(b),
            vec![
                "alloc.unit.outer".to_string(),
                "alloc.unit.inner".to_string()
            ]
        );
        assert_eq!(snap.slot_path(ROOT_SLOT), Vec::<String>::new());
        assert_eq!(
            snap.slot_path(OVERFLOW_SLOT),
            vec!["(overflow)".to_string()]
        );
    }

    #[test]
    fn enter_restore_scope_round_trips() {
        let before = current_slot();
        let prev = enter_scope("alloc.unit.scope");
        assert_eq!(prev, before);
        assert_ne!(current_slot(), before);
        restore_scope(prev);
        assert_eq!(current_slot(), before);
    }

    #[test]
    fn disabled_gate_reports_disabled() {
        // The gate is global state; other tests in this crate never
        // enable it, so `snapshot()` must agree with the flag.
        if !is_enabled() {
            assert!(!snapshot().enabled);
        }
    }
}
