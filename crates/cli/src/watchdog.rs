//! Watchdog supervision: `--stage-timeout SECS`.
//!
//! The pipeline proves liveness through [`hpcpower_obs::watchdog`]
//! heartbeats — every span entry and every committed checkpoint chunk
//! beats, whether or not telemetry is enabled. The [`Supervisor`] here
//! arms that heartbeat and polls its age from a background thread;
//! when no beat lands for the configured timeout, the process is
//! declared stalled and exits — code 6 when the run is checkpointed
//! (the run directory resumes exactly where it stopped), code 5
//! otherwise. Each poll publishes the
//! `obs.watchdog.last_beat_age_seconds` gauge, and a trip increments
//! `obs.watchdog.stalls` before exiting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Supervises the process heartbeat for the duration of a command.
#[derive(Debug)]
pub struct Supervisor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Arms the heartbeat and starts the poll thread. `exit_code` is
    /// what a stall exits with (6 = resumable checkpointed run, 5
    /// otherwise).
    pub fn start(timeout: Duration, exit_code: i32, quiet: bool) -> Supervisor {
        hpcpower_obs::watchdog::arm();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // Poll well inside the timeout so a stall is caught promptly,
        // but never busier than 25ms.
        let poll = (timeout / 8).clamp(Duration::from_millis(25), Duration::from_millis(250));
        let spawned = std::thread::Builder::new()
            .name("hpcpower-watchdog".into())
            .spawn(move || loop {
                std::thread::sleep(poll);
                if stop_flag.load(Ordering::Acquire) {
                    return;
                }
                let age = Duration::from_nanos(hpcpower_obs::watchdog::last_beat_age_ns());
                hpcpower_obs::gauge_set("obs.watchdog.last_beat_age_seconds", age.as_secs_f64());
                // Re-check the stop flag after measuring: the command
                // finishing between the sleep and the comparison must
                // not read as a stall.
                if age > timeout && !stop_flag.load(Ordering::Acquire) {
                    hpcpower_obs::counter_add("obs.watchdog.stalls", 1);
                    eprintln!(
                        "watchdog: no progress for {:.1}s (--stage-timeout {:.1}s); aborting",
                        age.as_secs_f64(),
                        timeout.as_secs_f64()
                    );
                    if exit_code == crate::errors::EXIT_INTERRUPTED {
                        eprintln!("watchdog: the run is checkpointed; rerun with --resume RUN_DIR");
                    }
                    std::process::exit(exit_code);
                }
            });
        let handle = match spawned {
            Ok(h) => Some(h),
            Err(e) => {
                // No supervision is better than no command: warn and run
                // unwatched rather than refusing to start.
                if !quiet {
                    eprintln!("warning: cannot start watchdog thread ({e}); running unsupervised");
                }
                hpcpower_obs::watchdog::disarm();
                None
            }
        };
        Supervisor { stop, handle }
    }

    /// Ends supervision: disarms the heartbeat and joins the poll
    /// thread, so no stall can fire after the command body finished.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        hpcpower_obs::watchdog::disarm();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        hpcpower_obs::watchdog::disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervisor_tolerates_a_beating_process_and_stops_cleanly() {
        let sup = Supervisor::start(Duration::from_secs(30), 5, true);
        hpcpower_obs::watchdog::beat_if_armed();
        std::thread::sleep(Duration::from_millis(60));
        sup.stop();
        assert!(!hpcpower_obs::watchdog::armed());
    }
}
