//! Event-driven batch scheduler: FCFS with EASY backfill.
//!
//! Both studied systems run conservative production schedulers (Torque +
//! Maui on Emmy, Slurm on Meggie). For the power analyses only the
//! *accounting outcome* matters — who started when on how many nodes —
//! and both schedulers operate in the same regime: FCFS order with EASY
//! backfill, which is what keeps highly loaded clusters at 80-90%
//! utilization despite fragmentation (Fig. 1).
//!
//! The scheduler is deterministic: given the same requests it produces
//! the same allocation, including concrete node ids (needed because the
//! power model attaches persistent manufacturing-variability factors to
//! physical nodes).

use std::collections::{BinaryHeap, HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::workload::JobRequest;

/// A job placed on the machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledJob {
    /// Index of the originating request.
    pub request_idx: usize,
    /// The request itself (copied for convenience).
    pub request: JobRequest,
    /// Start minute.
    pub start_min: u64,
    /// End minute (exclusive): `start + runtime`.
    pub end_min: u64,
    /// Physical node ids allocated (length = `request.nodes`).
    pub node_ids: Vec<u32>,
}

/// Scheduling result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// Successfully placed jobs, in start order.
    pub jobs: Vec<ScheduledJob>,
    /// Request indices that could never run (request larger than the
    /// machine).
    pub rejected: Vec<usize>,
}

#[derive(Debug)]
struct Running {
    nodes: u32,
    /// Conservative completion estimate: start + requested walltime.
    expected_end: u64,
    node_ids: Vec<u32>,
}

/// Schedules `requests` (must be sorted by `submit_min`) onto `n_nodes`
/// exclusive nodes using FCFS + EASY backfill: a queued job may jump the
/// queue if it does not delay the *head* job's reservation, either by
/// ending before the head's shadow time or by fitting in the nodes the
/// head will not need then.
pub fn schedule(requests: &[JobRequest], n_nodes: u32) -> ScheduleOutcome {
    debug_assert!(
        requests.windows(2).all(|w| w[0].submit_min <= w[1].submit_min),
        "requests must be sorted by submission time"
    );
    let mut jobs: Vec<ScheduledJob> = Vec::with_capacity(requests.len());
    let mut rejected = Vec::new();

    // Free nodes as a stack of physical ids.
    let mut free: Vec<u32> = (0..n_nodes).rev().collect();
    // Pending queue in FCFS order (request indices).
    let mut queue: VecDeque<usize> = VecDeque::new();
    // Running jobs: serial -> record; completions as a min-heap.
    let mut running: HashMap<u64, Running> = HashMap::new();
    let mut completions: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut serial: u64 = 0;

    let mut next_arrival = 0usize;
    let mut now: u64 = 0;

    // Telemetry accumulates in locals and is published once at the end,
    // so the event loop pays nothing beyond plain integer updates (and
    // only when telemetry is on).
    let telemetry = hpcpower_obs::enabled();
    let mut backfill_hits: u64 = 0;
    let mut max_queue_depth: usize = 0;
    let mut queue_depths: Vec<f64> = Vec::new();

    // Starts one queued request at `t`.
    let start_job = |idx: usize,
                     t: u64,
                     free: &mut Vec<u32>,
                     running: &mut HashMap<u64, Running>,
                     completions: &mut BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
                     jobs: &mut Vec<ScheduledJob>,
                     serial: &mut u64| {
        let req = requests[idx];
        let n = req.nodes as usize;
        let node_ids: Vec<u32> = free.drain(free.len() - n..).collect();
        let end = t + req.runtime_min;
        *serial += 1;
        running.insert(
            *serial,
            Running {
                nodes: req.nodes,
                expected_end: t + req.walltime_req_min,
                node_ids: node_ids.clone(),
            },
        );
        completions.push(std::cmp::Reverse((end, *serial)));
        jobs.push(ScheduledJob {
            request_idx: idx,
            request: req,
            start_min: t,
            end_min: end,
            node_ids,
        });
    };

    loop {
        // Next event time: earliest of next arrival and next completion.
        let arrival_t = requests.get(next_arrival).map(|r| r.submit_min);
        let completion_t = completions.peek().map(|std::cmp::Reverse((t, _))| *t);
        let t = match (arrival_t, completion_t) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => break,
        };
        now = now.max(t);

        // Release completed jobs.
        while let Some(std::cmp::Reverse((end, s))) = completions.peek().copied() {
            if end > now {
                break;
            }
            completions.pop();
            let rec = running.remove(&s).expect("completion for running job");
            free.extend(rec.node_ids);
        }
        // Accept arrivals.
        while next_arrival < requests.len() && requests[next_arrival].submit_min <= now {
            queue.push_back(next_arrival);
            next_arrival += 1;
        }
        if telemetry {
            max_queue_depth = max_queue_depth.max(queue.len());
            queue_depths.push(queue.len() as f64);
        }

        // FCFS + EASY backfill.
        while let Some(&head) = queue.front() {
            let head_req = &requests[head];
            if head_req.nodes > n_nodes {
                rejected.push(head);
                queue.pop_front();
                continue;
            }
            if head_req.nodes as usize <= free.len() {
                queue.pop_front();
                start_job(
                    head,
                    now,
                    &mut free,
                    &mut running,
                    &mut completions,
                    &mut jobs,
                    &mut serial,
                );
                continue;
            }
            // Head blocked: compute the shadow time (when enough nodes
            // will be free under conservative walltime estimates) and the
            // extra nodes not needed by the head at that time.
            let mut releases: Vec<(u64, u32)> = running
                .values()
                .map(|r| (r.expected_end, r.nodes))
                .collect();
            releases.sort_unstable();
            let mut avail = free.len() as u32;
            let mut shadow = u64::MAX;
            for (end, nodes) in releases {
                avail += nodes;
                if avail >= head_req.nodes {
                    shadow = end;
                    break;
                }
            }
            debug_assert!(shadow != u64::MAX, "head must eventually fit");
            let mut extra = avail - head_req.nodes;

            // Backfill pass over the rest of the queue.
            let mut qi = 1;
            while qi < queue.len() {
                let idx = queue[qi];
                let req = &requests[idx];
                let fits_now = req.nodes as usize <= free.len();
                if fits_now {
                    let ends_before_shadow = now + req.walltime_req_min <= shadow;
                    if ends_before_shadow || req.nodes <= extra {
                        if !ends_before_shadow {
                            extra -= req.nodes;
                        }
                        backfill_hits += 1;
                        queue.remove(qi);
                        start_job(
                            idx,
                            now,
                            &mut free,
                            &mut running,
                            &mut completions,
                            &mut jobs,
                            &mut serial,
                        );
                        continue; // same qi now points at the next entry
                    }
                }
                qi += 1;
            }
            break;
        }
    }
    if telemetry {
        hpcpower_obs::counter_add("sim.sched.backfill_hits", backfill_hits);
        hpcpower_obs::counter_add("sim.sched.rejected", rejected.len() as u64);
        hpcpower_obs::gauge_set("sim.sched.max_queue_depth", max_queue_depth as f64);
        hpcpower_obs::histogram_record_many("sim.sched.queue_depth", queue_depths);
        hpcpower_obs::histogram_record_many(
            "sim.sched.wait_min",
            jobs.iter()
                .map(|j| (j.start_min - j.request.submit_min) as f64),
        );
    }
    ScheduleOutcome { jobs, rejected }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(submit: u64, nodes: u32, walltime: u64, runtime: u64) -> JobRequest {
        JobRequest {
            user: 0,
            template: 0,
            app: 0,
            submit_min: submit,
            nodes,
            walltime_req_min: walltime,
            runtime_min: runtime,
        }
    }

    /// Verifies that at no minute do concurrently running jobs overlap in
    /// node ids or exceed the machine size.
    fn assert_no_double_booking(outcome: &ScheduleOutcome, n_nodes: u32) {
        let mut events: Vec<(u64, i64, &ScheduledJob)> = Vec::new();
        for j in &outcome.jobs {
            events.push((j.start_min, 1, j));
            events.push((j.end_min, -1, j));
        }
        events.sort_by_key(|(t, kind, _)| (*t, *kind));
        let mut in_use: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (_, kind, job) in events {
            if kind == -1 {
                for id in &job.node_ids {
                    assert!(in_use.remove(id));
                }
            } else {
                for id in &job.node_ids {
                    assert!(*id < n_nodes, "node id out of range");
                    assert!(in_use.insert(*id), "node {id} double-booked");
                }
            }
            assert!(in_use.len() <= n_nodes as usize);
        }
    }

    #[test]
    fn single_job_starts_immediately() {
        let reqs = vec![req(10, 4, 60, 30)];
        let out = schedule(&reqs, 8);
        assert_eq!(out.jobs.len(), 1);
        assert_eq!(out.jobs[0].start_min, 10);
        assert_eq!(out.jobs[0].end_min, 40);
        assert_eq!(out.jobs[0].node_ids.len(), 4);
    }

    #[test]
    fn fcfs_queueing() {
        // Two 6-node jobs on an 8-node machine: second waits.
        let reqs = vec![req(0, 6, 100, 100), req(0, 6, 100, 100)];
        let out = schedule(&reqs, 8);
        assert_eq!(out.jobs[0].start_min, 0);
        assert_eq!(out.jobs[1].start_min, 100);
        assert_no_double_booking(&out, 8);
    }

    #[test]
    fn backfill_fills_holes_without_delaying_head() {
        // Machine: 8 nodes.
        // J0: 6 nodes, runtime 100 -> occupies until t=100.
        // J1 (head after J0 starts): 8 nodes -> shadow = 100.
        // J2: 2 nodes, walltime 50 -> fits in the hole (2 free nodes,
        //     ends at 50 <= shadow) and must be backfilled at t=0.
        let reqs = vec![
            req(0, 6, 100, 100),
            req(1, 8, 100, 100),
            req(2, 2, 50, 50),
        ];
        let out = schedule(&reqs, 8);
        let by_req: HashMap<usize, &ScheduledJob> =
            out.jobs.iter().map(|j| (j.request_idx, j)).collect();
        assert_eq!(by_req[&2].start_min, 2, "backfill should start immediately");
        assert_eq!(by_req[&1].start_min, 100, "head starts at shadow time");
        assert_no_double_booking(&out, 8);
    }

    #[test]
    fn backfill_does_not_delay_head_via_long_small_job() {
        // J0: 6 nodes until 100. J1 head: 8 nodes (shadow 100, extra 0).
        // J2: 2 nodes, walltime 500 -> would push the head's start to 500
        // if backfilled; EASY must refuse it.
        let reqs = vec![
            req(0, 6, 100, 100),
            req(1, 8, 100, 100),
            req(2, 2, 500, 500),
        ];
        let out = schedule(&reqs, 8);
        let by_req: HashMap<usize, &ScheduledJob> =
            out.jobs.iter().map(|j| (j.request_idx, j)).collect();
        assert_eq!(by_req[&1].start_min, 100, "head must not be delayed");
        assert!(by_req[&2].start_min >= 100);
        assert_no_double_booking(&out, 8);
    }

    #[test]
    fn early_completion_frees_nodes_sooner() {
        // J0 requests 100 walltime but finishes at 20; J1 should start at 20.
        let reqs = vec![req(0, 8, 100, 20), req(0, 8, 100, 10)];
        let out = schedule(&reqs, 8);
        assert_eq!(out.jobs[1].start_min, 20);
    }

    #[test]
    fn oversized_request_rejected() {
        let reqs = vec![req(0, 16, 60, 60), req(0, 2, 60, 60)];
        let out = schedule(&reqs, 8);
        assert_eq!(out.rejected, vec![0]);
        assert_eq!(out.jobs.len(), 1);
        assert_eq!(out.jobs[0].request_idx, 1);
    }

    #[test]
    fn random_workload_has_no_double_booking() {
        use hpcpower_stats::rng::SplitMix64;
        let mut rng = SplitMix64::new(42);
        let mut reqs = Vec::new();
        let mut t = 0u64;
        for _ in 0..500 {
            t += rng.next_bounded(30);
            let nodes = 1 + rng.next_bounded(16) as u32;
            let walltime = 30 + rng.next_bounded(300);
            let runtime = 10 + rng.next_bounded(walltime - 10);
            reqs.push(req(t, nodes, walltime, runtime));
        }
        let out = schedule(&reqs, 24);
        assert_eq!(out.jobs.len() + out.rejected.len(), 500);
        assert_no_double_booking(&out, 24);
        // All requests sized within the machine must run.
        assert!(out.rejected.is_empty());
    }

    #[test]
    fn jobs_never_start_before_submission() {
        use hpcpower_stats::rng::SplitMix64;
        let mut rng = SplitMix64::new(7);
        let mut reqs = Vec::new();
        let mut t = 0u64;
        for _ in 0..200 {
            t += rng.next_bounded(10);
            reqs.push(req(
                t,
                1 + rng.next_bounded(8) as u32,
                60,
                10 + rng.next_bounded(50),
            ));
        }
        let out = schedule(&reqs, 16);
        for j in &out.jobs {
            assert!(j.start_min >= j.request.submit_min);
            assert_eq!(j.end_min - j.start_min, j.request.runtime_min);
        }
    }

    #[test]
    fn backfill_uses_post_shadow_extra_nodes_without_delaying_head() {
        // Machine: 10 nodes. J0: 6 nodes until 100. J1 head: 8 nodes ->
        // shadow 100, avail at shadow = 10, extra = 2.
        // J2: 2 nodes, walltime 300 (ends after the shadow) fits in the
        // extra nodes, so EASY starts it at once; the head still starts
        // at the shadow time.
        let reqs = vec![
            req(0, 6, 100, 100),
            req(1, 8, 100, 100),
            req(2, 2, 300, 300),
        ];
        let out = schedule(&reqs, 10);
        let by_req: HashMap<usize, &ScheduledJob> =
            out.jobs.iter().map(|j| (j.request_idx, j)).collect();
        assert_eq!(by_req[&2].start_min, 2, "EASY backfills into extra nodes");
        assert_eq!(by_req[&1].start_min, 100, "head must not be delayed");
        assert_no_double_booking(&out, 10);
    }

    #[test]
    fn utilization_is_high_under_backlog() {
        use hpcpower_stats::rng::SplitMix64;
        let mut rng = SplitMix64::new(9);
        let mut reqs = Vec::new();
        // Offered load ~1.3x capacity over 5000 minutes on 32 nodes.
        let mut t = 0u64;
        let mut offered = 0u64;
        while offered < 32 * 5000 * 13 / 10 {
            t += rng.next_bounded(4);
            let nodes = 1 + rng.next_bounded(8) as u32;
            let runtime = 60 + rng.next_bounded(240);
            offered += nodes as u64 * runtime;
            reqs.push(req(t, nodes, runtime + 30, runtime));
        }
        let out = schedule(&reqs, 32);
        // Measure utilization over the first 5000 minutes.
        let horizon = 5000u64;
        let used: u64 = out
            .jobs
            .iter()
            .map(|j| {
                let s = j.start_min.min(horizon);
                let e = j.end_min.min(horizon);
                j.request.nodes as u64 * (e - s)
            })
            .sum();
        let util = used as f64 / (32 * horizon) as f64;
        assert!(util > 0.8, "utilization {util} too low for saturated queue");
    }
}
