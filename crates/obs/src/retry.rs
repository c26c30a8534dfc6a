//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Transient failures — an interrupted syscall, a timed-out write —
//! deserve a second chance; permanent ones (ENOSPC, permission denied)
//! do not. [`retry_io`] is the one retry loop the workspace shares: it
//! runs an I/O closure up to [`RetryPolicy::max_attempts`] times,
//! sleeping an exponentially growing, jittered delay between attempts,
//! retrying only while [`is_transient`] says the error is worth
//! retrying. The artifact publisher (`hpcpower_trace::recover`) runs
//! every atomic write through it.
//!
//! Jitter is **deterministic**: it is derived from a caller-supplied
//! salt and the attempt index via a SplitMix64 hash, never from the
//! clock, so a retrying test is exactly as reproducible as a
//! non-retrying one. The jittered delay for attempt `k` lies in
//! `[(1 - jitter) * d_k, d_k]` with `d_k = min(base * 2^k, max_delay)`,
//! the standard decorrelated band that keeps a thundering herd of
//! retriers from re-colliding in lockstep.

use std::io;
use std::time::Duration;

use hpcpower_stats::rng::mix_words;

/// Tunables of the shared retry loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retry").
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
    /// Fraction of each delay randomized away (0 = fixed delays,
    /// 0.5 = delays drawn from `[d/2, d]`). Clamped to `[0, 1]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — useful to thread through code
    /// paths that take a policy but must fail fast in some mode.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The backoff delay before attempt `attempt + 1` (0-based), with
    /// the deterministic jitter for `salt` applied.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let jitter = self.jitter.clamp(0.0, 1.0);
        // 53 high bits of a SplitMix64 hash -> uniform fraction in [0, 1).
        let frac = (mix_words(&[salt, attempt as u64]) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(1.0 - jitter * frac)
    }
}

/// Whether an I/O error kind is worth retrying: connection-level races
/// and interrupted/timed-out syscalls are; everything else (not found,
/// permission denied, disk full, invalid data) is permanent.
pub fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::AddrInUse
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
            | io::ErrorKind::UnexpectedEof
    )
}

/// Runs `op` under `policy`: up to `max_attempts` tries, backing off
/// between attempts, retrying only transient errors. The closure
/// receives the 0-based attempt index. Every retry bumps the
/// `obs.retry.attempts` counter (no-op while telemetry is disabled).
pub fn retry_io<T>(
    policy: &RetryPolicy,
    salt: u64,
    mut op: impl FnMut(u32) -> io::Result<T>,
) -> io::Result<T> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                let transient = is_transient(e.kind());
                last_err = Some(e);
                if !transient || attempt + 1 == attempts {
                    break;
                }
                crate::counter_add("obs.retry.attempts", 1);
                std::thread::sleep(policy.delay(attempt, salt));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("retry_io: no attempts made")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            jitter: 0.5,
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let calls = AtomicU32::new(0);
        let out = retry_io(&fast(), 7, |_| {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "not up yet",
                ))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(&fast(), 7, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "no retry on permanent errors"
        );
    }

    #[test]
    fn attempts_are_bounded() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(&fast(), 7, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::new(io::ErrorKind::TimedOut, "slow"))
        });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..6 {
            let a = p.delay(attempt, 99);
            let b = p.delay(attempt, 99);
            assert_eq!(a, b, "same salt and attempt must give the same delay");
            let ceiling = p.base_delay.saturating_mul(1 << attempt).min(p.max_delay);
            assert!(a <= ceiling, "attempt {attempt}: {a:?} > {ceiling:?}");
            assert!(
                a >= ceiling.mul_f64(1.0 - p.jitter),
                "attempt {attempt}: {a:?} below the jitter band"
            );
        }
        // Different salts spread delays apart (not all equal).
        let spread: Vec<Duration> = (0..8).map(|s| p.delay(3, s)).collect();
        assert!(
            spread.iter().any(|d| *d != spread[0]),
            "jitter never varies"
        );
    }

    #[test]
    fn zero_attempts_clamps_to_one() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..fast()
        };
        assert_eq!(retry_io(&p, 1, |_| Ok(5)).unwrap(), 5);
    }
}
