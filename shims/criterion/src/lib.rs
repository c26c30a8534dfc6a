//! Offline stand-in for the real `criterion` crate.
//!
//! Provides the API surface the workspace's benches use — `Criterion`,
//! `benchmark_group`, `Bencher::iter`, `Throughput`, `BenchmarkId`, and
//! the `criterion_group!`/`criterion_main!` macros — measuring simple
//! wall-clock time per iteration and printing one line per benchmark.
//! No statistical analysis, warm-up tuning, or HTML reports.

use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs a single benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new();
        f(&mut b);
        b.report(name);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _criterion: self,
        }
    }
}

/// Measures one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    total: Duration,
    iters: u64,
}

/// Iteration budget: keep each benchmark under roughly this much time.
/// `CRITERION_QUICK=1` (the shim's stand-in for real criterion's
/// `--quick` flag) shrinks it so CI can smoke-run every bench for
/// panics and API rot without paying full sampling time.
fn target_time() -> Duration {
    static QUICK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let quick = *QUICK
        .get_or_init(|| std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()));
    if quick {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(300)
    }
}

impl Bencher {
    fn new() -> Self {
        Self {
            total: Duration::ZERO,
            iters: 0,
        }
    }

    /// Times repeated runs of `f` until the time budget is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let budget = target_time();
        // One untimed warm-up run.
        std::hint::black_box(f());
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            std::hint::black_box(f());
            iters += 1;
            if start.elapsed() >= budget || iters >= 10_000 {
                break;
            }
        }
        self.total = start.elapsed();
        self.iters = iters;
    }

    fn report(&self, name: &str) {
        if self.iters == 0 {
            eprintln!("bench {name}: no iterations recorded");
            return;
        }
        let per_iter = self.total / self.iters as u32;
        eprintln!("bench {name}: {per_iter:?}/iter ({} iters)", self.iters);
    }
}

/// Throughput annotation (recorded but not analyzed).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A parameterized benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier from a function name and parameter.
    pub fn new(name: &str, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }

    /// Identifier from a parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sample-size hint; ignored by this shim.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Throughput annotation; recorded nowhere in this shim.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new();
        f(&mut b);
        b.report(&format!("{}/{}", self.name, name));
        self
    }

    /// Runs a parameterized benchmark within the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new();
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.id));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group function running each listed benchmark.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
