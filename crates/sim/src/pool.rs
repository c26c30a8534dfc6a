//! Scoped rayon-pool plumbing for the simulation pipeline.
//!
//! One knob — a thread count with `0` meaning "all cores" — flows from
//! `SimConfig::threads` / the CLI `--threads` flag into every parallel
//! stage. Running inside the pool only changes *how fast* results
//! arrive, never *what* they are: all parallel stages in this crate are
//! order-preserving (see DESIGN.md, "Parallelism & determinism").

/// Runs `op` inside a rayon pool of `threads` workers.
///
/// `threads == 0` inherits the caller's pool (the global default, i.e.
/// all cores, unless an outer `with_threads` is already active).
pub fn with_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    if threads == 0 {
        return op();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a rayon pool cannot fail with a fixed thread count")
        .install(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn zero_inherits_one_and_n_pin() {
        let out0 = with_threads(0, || (0..64u32).into_par_iter().map(|x| x + 1).collect::<Vec<_>>());
        let out1 = with_threads(1, || (0..64u32).into_par_iter().map(|x| x + 1).collect::<Vec<_>>());
        let out4 = with_threads(4, || (0..64u32).into_par_iter().map(|x| x + 1).collect::<Vec<_>>());
        assert_eq!(out0, out1);
        assert_eq!(out1, out4);
    }
}
