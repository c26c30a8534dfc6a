//! Offline stand-in for the real `rayon` crate.
//!
//! The workspace builds without registry access, so this shim provides
//! the subset of rayon the crates use, implemented eagerly on top of
//! `std::thread::scope`:
//!
//! * `into_par_iter()` on `Vec<T>` and integer ranges, `par_iter()` on
//!   slices;
//! * `map` / `filter_map` / `enumerate` / `for_each` / `collect` / `sum`
//!   on the resulting [`ParIter`];
//! * `ThreadPoolBuilder` → `ThreadPool::install` (a thread-local
//!   thread-count override) and `build_global`.
//!
//! Semantics deliberately mirror the properties the workspace's
//! determinism tests rely on: `map`/`filter_map` preserve input order
//! regardless of thread count, and `sum` reduces the ordered results
//! serially, so every parallel combinator here is a pure speedup with
//! byte-identical output at any thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude;

thread_local! {
    /// Per-thread pool-size override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Pool size requested via [`ThreadPoolBuilder::build_global`]; 0 = unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread count parallel combinators use on the current thread.
pub fn current_num_threads() -> usize {
    let tl = POOL_THREADS.with(Cell::get);
    if tl > 0 {
        return tl;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    default_threads()
}

/// Error type kept for API compatibility; building a pool cannot fail
/// in this shim.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (all cores) size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool size; 0 means all cores.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds a scoped pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads,
        })
    }

    /// Sets the process-wide default pool size.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// A "pool" is just a thread-count policy: `install` makes parallel
/// combinators on the current thread use it for the closure's duration.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in effect.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| c.replace(self.threads));
        let result = op();
        POOL_THREADS.with(|c| c.set(prev));
        result
    }

    /// The effective size of this pool.
    pub fn current_num_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }
}

/// Applies `f` to every item, in parallel, preserving input order.
fn par_apply<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_apply_init(items, &|| (), &|(), item| f(item))
}

/// Like [`par_apply`], but each worker materializes one `init()` state
/// and threads it mutably through its whole contiguous chunk — the
/// `map_init` contract real rayon offers for per-worker scratch reuse.
fn par_apply_init<T, U, S, INIT, F>(items: Vec<T>, init: &INIT, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    // Contiguous chunks, one per worker; results concatenate in chunk
    // order so the output order equals the input order.
    let len = items.len();
    let base = len / threads;
    let extra = len % threads;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut iter = items.into_iter();
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        chunks.push(iter.by_ref().take(size).collect());
    }
    let mut results: Vec<Vec<U>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut state = init();
                    chunk
                        .into_iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("rayon shim worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// An eager parallel iterator: combinators evaluate immediately and
/// preserve order.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel, order-preserving map.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParIter {
            items: par_apply(self.items, &f),
        }
    }

    /// Parallel, order-preserving map with per-worker state: each worker
    /// calls `init()` once and reuses the state across every item in its
    /// contiguous chunk, mirroring rayon's `map_init`.
    pub fn map_init<S, U, INIT, F>(self, init: INIT, f: F) -> ParIter<U>
    where
        U: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> U + Sync,
    {
        ParIter {
            items: par_apply_init(self.items, &init, &f),
        }
    }

    /// Parallel, order-preserving filter-map.
    pub fn filter_map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> Option<U> + Sync,
    {
        ParIter {
            items: par_apply(self.items, &f).into_iter().flatten().collect(),
        }
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Parallel for-each (no result ordering to observe).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_apply(self.items, &|item| f(item));
    }

    /// Collects the ordered results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the ordered results serially — deterministic for floats.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Chunk-size hint; a no-op in this shim.
    pub fn with_min_len(self, _min: usize) -> Self {
        self
    }
}

/// Conversion into a [`ParIter`] by value.
pub trait IntoParallelIterator {
    /// Item type of the iterator.
    type Item: Send;
    /// Converts into an eager parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_range!(u32, u64, usize, i32, i64);

/// `par_iter()` over a slice's references.
pub trait IntoParallelRefIterator<'a> {
    /// Reference item type.
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let serial: Vec<u64> = (0..1000u64).into_par_iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel: Vec<u64> =
                pool.install(|| (0..1000u64).into_par_iter().map(|x| x * 3).collect());
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn filter_map_preserves_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<u32> = pool.install(|| {
            (0..100u32)
                .into_par_iter()
                .filter_map(|x| (x % 3 == 0).then_some(x))
                .collect()
        });
        let expect: Vec<u32> = (0..100).filter(|x| x % 3 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn install_restores_previous_override() {
        let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 3);
            inner.install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn map_init_matches_map_and_reuses_state_per_worker() {
        let serial: Vec<u64> = (0..500u64).into_par_iter().map(|x| x * 7 + 1).collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let out: Vec<u64> = pool.install(|| {
                (0..500u64)
                    .into_par_iter()
                    .map_init(
                        || vec![0u64; 8],
                        |scratch, x| {
                            scratch[0] = x;
                            scratch[0] * 7 + 1
                        },
                    )
                    .collect()
            });
            assert_eq!(serial, out, "threads={threads}");
        }
        // At most one init() per worker chunk.
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let _: Vec<u64> = pool.install(|| {
            (0..100u64)
                .into_par_iter()
                .map_init(
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                    },
                    |(), x| x,
                )
                .collect()
        });
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn collect_into_result_short_circuits_shape() {
        let ok: Result<Vec<u32>, String> = (0..10u32)
            .into_par_iter()
            .map(|x| if x < 10 { Ok(x) } else { Err("no".to_string()) })
            .collect();
        assert_eq!(ok.unwrap().len(), 10);
    }
}
