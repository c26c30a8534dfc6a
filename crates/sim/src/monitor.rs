//! Streaming monitoring pipeline.
//!
//! Mirrors the paper's data-collection methodology (Sec. 2.2): continuous
//! system monitoring samples every node once per minute; node samples are
//! joined with scheduler accounting to produce per-job aggregates, and
//! for a subset of jobs ("several time-resolved performance counters were
//! also logged" for one month) full per-node series are retained.
//!
//! The pipeline never materializes the full telemetry: each job's samples
//! are generated on the fly from the stateless [`PowerModel`] and folded
//! into one-pass accumulators ([`hpcpower_stats::online`]). Jobs are
//! processed in parallel with rayon in fixed-size batches; each batch's
//! per-minute contributions are folded into the system accumulator
//! serially in job order, so the system series is bit-identical for any
//! thread count (see DESIGN.md, "Parallelism & determinism").

use hpcpower_stats::online::{LaneTotals, SpatialSpreadTracker, TimeAboveMeanTracker};
use hpcpower_trace::dataset::SystemSample;
use hpcpower_trace::{JobId, JobPowerSummary, JobSeries};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::power::{JobPowerParams, PowerModel};
use crate::scheduler::ScheduledJob;

/// Which jobs get full per-node series retained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstrumentConfig {
    /// Window start (minutes since epoch).
    pub start_min: u64,
    /// Window end (exclusive).
    pub end_min: u64,
    /// Only jobs with at least this many nodes (spatial metrics need >1).
    pub min_nodes: u32,
    /// Total sample budget (nodes × minutes summed over kept jobs).
    pub sample_budget: usize,
}

impl Default for InstrumentConfig {
    fn default() -> Self {
        Self {
            start_min: 0,
            end_min: u64::MAX,
            min_nodes: 2,
            sample_budget: 4_000_000,
        }
    }
}

/// Monitor output: per-job summaries (aligned with the input job slice),
/// the per-minute system series, and retained series.
#[derive(Debug, Clone)]
pub struct MonitorOutput {
    /// One summary per scheduled job, in input order; `id` is the input
    /// index.
    pub summaries: Vec<JobPowerSummary>,
    /// Per-minute system samples over `[0, horizon_min)`.
    pub system_series: Vec<SystemSample>,
    /// Full series for the instrumented subset.
    pub instrumented: Vec<JobSeries>,
}

/// Selects the instrumented job set deterministically (in input order,
/// until the sample budget is exhausted).
pub fn select_instrumented(
    jobs: &[ScheduledJob],
    eligible_app: &[bool],
    cfg: &InstrumentConfig,
) -> Vec<bool> {
    let telemetry = hpcpower_obs::enabled();
    let mut budget = cfg.sample_budget;
    let mut flags = vec![false; jobs.len()];
    let mut kept_samples: Vec<f64> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let app = job.request.app as usize;
        if job.request.nodes < cfg.min_nodes
            || job.start_min < cfg.start_min
            || job.start_min >= cfg.end_min
            || !eligible_app.get(app).copied().unwrap_or(false)
        {
            continue;
        }
        let samples = job.request.nodes as usize * (job.end_min - job.start_min) as usize;
        if samples <= budget {
            budget -= samples;
            flags[i] = true;
            if telemetry {
                kept_samples.push(samples as f64);
            }
        }
    }
    if telemetry {
        hpcpower_obs::counter_add("sim.monitor.instrumented_jobs", kept_samples.len() as u64);
        if cfg.sample_budget > 0 {
            hpcpower_obs::gauge_set(
                "sim.monitor.budget_used_frac",
                (cfg.sample_budget - budget) as f64 / cfg.sample_budget as f64,
            );
        }
        hpcpower_obs::histogram_record_many("sim.monitor.job_samples", kept_samples);
    }
    flags
}

/// The serial system-series reducer — the only stage where jobs
/// interact, and therefore the stage that defines the dataset's float
/// addition order. Both [`monitor`] and the checkpoint finalizer
/// (`crate::checkpoint`) fold through this exact code, job by job in
/// input order, minutes ascending — which is what makes a resumed
/// chunked run bit-identical to an uninterrupted monolithic one.
pub(crate) struct SystemFold {
    power: Vec<f64>,
    active: Vec<u64>,
    horizon: usize,
}

impl SystemFold {
    pub(crate) fn new(horizon_min: u64) -> Self {
        let horizon = horizon_min as usize;
        Self {
            power: vec![0.0; horizon],
            active: vec![0; horizon],
            horizon,
        }
    }

    /// Adds one job's minute-power column into the system accumulators:
    /// the in-horizon prefix of `column`, minutes in ascending order.
    pub(crate) fn fold_job(&mut self, job: &ScheduledJob, column: &[f64]) {
        let start = job.start_min as usize;
        let nodes = job.request.nodes as u64;
        if start >= self.horizon {
            return;
        }
        let end = (start + column.len()).min(self.horizon);
        let span = end - start;
        for (dst, &power) in self.power[start..end].iter_mut().zip(&column[..span]) {
            *dst += power;
        }
        for dst in &mut self.active[start..end] {
            *dst += nodes;
        }
    }

    /// Finishes the fold into the per-minute system series.
    pub(crate) fn into_system_series(self) -> Vec<SystemSample> {
        (0..self.horizon)
            .map(|m| SystemSample {
                minute: m as u64,
                active_nodes: self.active[m] as u32,
                total_power_w: self.power[m],
            })
            .collect()
    }
}

/// Reusable per-worker scratch arena for the columnar kernel.
///
/// One instance lives per rayon worker (`map_init`) and is reused across
/// every job the worker materializes, so the steady-state hot loop
/// performs **zero** heap allocation: buffers only grow to the
/// high-water mark of the jobs seen so far. Layout per job:
///
/// ```text
/// tf      [minutes]            common temporal factors (per minute)
/// row     [minutes]            one rank's power row (uninstrumented)
/// matrix  [nodes * minutes]    full rank-major matrix (instrumented)
/// minc/maxc [minutes]          per-minute min/max across ranks (n > 1)
/// ```
struct KernelScratch {
    tf: Vec<f64>,
    row: Vec<f64>,
    matrix: Vec<f64>,
    minc: Vec<f64>,
    maxc: Vec<f64>,
    job_power: TimeAboveMeanTracker,
    spread: SpatialSpreadTracker,
    energies: LaneTotals,
    /// Largest scratch footprint (bytes) already reported to telemetry.
    reported_hwm: usize,
}

impl KernelScratch {
    fn new(model: &PowerModel) -> Self {
        let tdp = model.config().tdp_w;
        Self {
            tf: Vec::new(),
            row: Vec::new(),
            matrix: Vec::new(),
            minc: Vec::new(),
            maxc: Vec::new(),
            job_power: TimeAboveMeanTracker::new(tdp * 1.05, 0.1),
            spread: SpatialSpreadTracker::new(tdp * 1.05, 0.1),
            energies: LaneTotals::new(0),
            reported_hwm: 0,
        }
    }

    /// Current arena footprint in bytes (capacity of the f64 buffers).
    fn arena_bytes(&self) -> usize {
        (self.tf.capacity()
            + self.row.capacity()
            + self.matrix.capacity()
            + self.minc.capacity()
            + self.maxc.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Grows `buf` to `len` (zero-filled) without shrinking its capacity.
#[inline]
fn resize_scratch(buf: &mut Vec<f64>, len: usize, fill: f64) {
    buf.clear();
    buf.resize(len, fill);
}

/// Ensures `buf[..len]` is addressable without re-initializing the
/// prefix — for buffers the kernel fully overwrites before reading
/// (temporal factors, power rows). Skipping the redundant zero-fill
/// saves a full write pass over ~70 MB of row data per simulated month.
#[inline]
fn grow_scratch(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Columnar kernel: summarizes one job in a fused pass over rank-major
/// power rows generated into the scratch arena. Writes the job's
/// per-minute total power into `minute_power` (length = job minutes) for
/// the caller's serial system fold.
///
/// Bit-identical to the retained scalar reference (`summarize_job`):
/// every float is produced by the same expression grouping, and every
/// accumulator receives the same values in the same order — per-minute
/// sums add ranks in ascending order, lane energies add minutes in
/// ascending order, trackers are pushed minute-major (see DESIGN.md,
/// "Columnar kernel & scratch arenas").
fn summarize_job_columnar(
    model: &PowerModel,
    job: &ScheduledJob,
    params: &JobPowerParams,
    keep_series: bool,
    scratch: &mut KernelScratch,
    minute_power: &mut [f64],
    telemetry: bool,
) -> (JobPowerSummary, Option<JobSeries>) {
    let n_nodes = job.request.nodes;
    let n = n_nodes as usize;
    let minutes = (job.end_min - job.start_min) as u32;
    let m = minutes as usize;
    debug_assert_eq!(minute_power.len(), m);

    scratch.job_power.reset();
    scratch.spread.reset();
    scratch.energies.reset(n);
    grow_scratch(&mut scratch.tf, m);
    if n > 1 {
        resize_scratch(&mut scratch.minc, m, f64::INFINITY);
        resize_scratch(&mut scratch.maxc, m, f64::NEG_INFINITY);
    }
    if keep_series {
        grow_scratch(&mut scratch.matrix, n * m);
    } else {
        grow_scratch(&mut scratch.row, m);
    }
    minute_power.fill(0.0);

    model.fill_temporal_factors(params, &mut scratch.tf[..m]);

    // Rank-major generation: each rank's row is filled in one stride,
    // then folded into the per-minute columns. Adding rows in ascending
    // rank order reproduces the scalar path's `minute_sum` additions
    // exactly (both start from 0.0 and add p(rank 0), p(rank 1), ...).
    // Lane energies accumulate row-locally in minute order — the same
    // addition sequence as the scalar path's per-sample `add` calls, and
    // `0.0 + energy == energy` because every clamped sample is positive.
    for rank in 0..n_nodes {
        let node_id = job.node_ids[rank as usize];
        let pre = model.rank_prefactor(params, node_id, rank);
        if n == 1 && !keep_series {
            // Single-node, uninstrumented job: the minute column IS the
            // row (`0.0 + p == p` for the positive clamped samples), so
            // generate straight into the output window.
            model.fill_power_row(params, rank, pre, &scratch.tf[..m], minute_power);
            let mut energy = 0.0;
            for &p in minute_power.iter() {
                energy += p;
            }
            scratch.energies.add(0, energy);
            break;
        }
        let row: &mut [f64] = if keep_series {
            &mut scratch.matrix[rank as usize * m..(rank as usize + 1) * m]
        } else {
            &mut scratch.row[..m]
        };
        model.fill_power_row(params, rank, pre, &scratch.tf[..m], row);
        let mut energy = 0.0;
        if n > 1 {
            for (((sum, mn), mx), &p) in minute_power
                .iter_mut()
                .zip(&mut scratch.minc)
                .zip(&mut scratch.maxc)
                .zip(row.iter())
            {
                *sum += p;
                *mn = mn.min(p);
                *mx = mx.max(p);
                energy += p;
            }
        } else {
            for (sum, &p) in minute_power.iter_mut().zip(row.iter()) {
                *sum += p;
                energy += p;
            }
        }
        scratch.energies.add(rank as usize, energy);
    }

    // Fused minute-major summarization pass over the columns.
    let mut total = 0.0;
    if n > 1 {
        for ((&minute_sum, &mx), &mn) in minute_power.iter().zip(&scratch.maxc).zip(&scratch.minc) {
            total += minute_sum;
            scratch.job_power.push(minute_sum / n_nodes as f64);
            scratch.spread.push(mx - mn);
        }
    } else {
        for &minute_sum in minute_power.iter() {
            total += minute_sum;
            scratch.job_power.push(minute_sum / n_nodes as f64);
            scratch.spread.push(0.0);
        }
    }

    if telemetry {
        let bytes = scratch.arena_bytes();
        if bytes > scratch.reported_hwm {
            scratch.reported_hwm = bytes;
            hpcpower_obs::histogram_record("sim.kernel.scratch_bytes", bytes as f64);
        }
    }

    let summary = JobPowerSummary {
        id: JobId::from_index(job.request_idx), // re-keyed by the caller
        per_node_power_w: total / (n_nodes as f64 * minutes as f64),
        energy_wmin: total,
        peak_overshoot: scratch.job_power.peak_overshoot().max(0.0),
        frac_time_above_10pct: scratch.job_power.fraction_above_mean_factor(1.10),
        temporal_cv: scratch.job_power.temporal_cv(),
        avg_spatial_spread_w: scratch.spread.average_spread(),
        frac_time_spread_above_avg: scratch.spread.fraction_above_average(),
        energy_imbalance: if n_nodes > 1 {
            scratch.energies.relative_imbalance()
        } else {
            0.0
        },
    };
    let series = keep_series.then(|| {
        JobSeries::from_slice(
            JobId::from_index(job.request_idx),
            n_nodes,
            minutes,
            &scratch.matrix[..n * m],
        )
        .expect("series shape is consistent by construction")
    });
    (summary, series)
}

/// Scalar reference path, retained as the kernel's oracle: summarizes one
/// job sample-by-sample through [`PowerModel::sample`]. The property
/// tests assert the columnar kernel reproduces this bit-for-bit.
#[cfg(test)]
fn summarize_job(
    model: &PowerModel,
    job: &ScheduledJob,
    params: &JobPowerParams,
    keep_series: bool,
    mut on_minute: impl FnMut(u64, f64, u32),
) -> (JobPowerSummary, Option<JobSeries>) {
    let n_nodes = job.request.nodes;
    let minutes = (job.end_min - job.start_min) as u32;
    let tdp = model.config().tdp_w;

    let mut job_power = TimeAboveMeanTracker::new(tdp * 1.05, 0.1);
    let mut spread = SpatialSpreadTracker::new(tdp * 1.05, 0.1);
    let mut energies = LaneTotals::new(n_nodes as usize);
    let mut series = if keep_series {
        Some(vec![0.0f64; n_nodes as usize * minutes as usize])
    } else {
        None
    };
    let mut total = 0.0;

    for t in 0..minutes as u64 {
        let mut minute_sum = 0.0;
        let mut min_p = f64::INFINITY;
        let mut max_p = f64::NEG_INFINITY;
        for rank in 0..n_nodes {
            let node_id = job.node_ids[rank as usize];
            let p = model.sample(params, node_id, rank, t);
            minute_sum += p;
            min_p = min_p.min(p);
            max_p = max_p.max(p);
            energies.add(rank as usize, p);
            if let Some(buf) = series.as_mut() {
                buf[rank as usize * minutes as usize + t as usize] = p;
            }
        }
        total += minute_sum;
        job_power.push(minute_sum / n_nodes as f64);
        spread.push(if n_nodes > 1 { max_p - min_p } else { 0.0 });
        on_minute(job.start_min + t, minute_sum, n_nodes);
    }

    let summary = JobPowerSummary {
        id: JobId::from_index(job.request_idx), // re-keyed by the caller
        per_node_power_w: total / (n_nodes as f64 * minutes as f64),
        energy_wmin: total,
        peak_overshoot: job_power.peak_overshoot().max(0.0),
        frac_time_above_10pct: job_power.fraction_above_mean_factor(1.10),
        temporal_cv: job_power.temporal_cv(),
        avg_spatial_spread_w: spread.average_spread(),
        frac_time_spread_above_avg: spread.fraction_above_average(),
        energy_imbalance: if n_nodes > 1 {
            energies.relative_imbalance()
        } else {
            0.0
        },
    };
    let series = series.map(|buf| {
        JobSeries::new(JobId::from_index(job.request_idx), n_nodes, minutes, buf)
            .expect("series shape is consistent by construction")
    });
    (summary, series)
}

/// Jobs materialized per parallel batch. The batch size is a constant —
/// never a function of the thread count — so the serial in-order fold of
/// each batch's minute contributions performs the exact same float
/// additions in the exact same order regardless of parallelism. Peak
/// extra memory is one f64 per job-minute of the in-flight batch (the
/// flat minute-power column) plus each worker's scratch arena.
const BATCH_JOBS: usize = 256;

/// One materialized job range: per-job summaries and retained series
/// (ids already re-keyed to the *global* job index), plus the flat
/// concatenated minute-power columns the system fold consumes. Job
/// `range.start + k` owns `columns[offsets[k]..offsets[k + 1]]`.
///
/// This is the unit both [`monitor`] (one instance per fixed-size
/// batch) and the checkpoint layer (one instance per committed chunk)
/// produce: every float in it is a pure function of the job's params,
/// so *how* jobs are grouped into ranges cannot change any byte.
#[derive(Debug, Default)]
pub(crate) struct MaterializedJobs {
    pub(crate) summaries: Vec<JobPowerSummary>,
    pub(crate) series: Vec<Option<JobSeries>>,
    pub(crate) columns: Vec<f64>,
    pub(crate) offsets: Vec<usize>,
}

/// Materializes `jobs[range]` in parallel into `out` (cleared first;
/// buffers are reused across calls, so the steady-state hot loop stays
/// allocation-free). Workers write disjoint `split_at_mut` windows of
/// the flat column; each worker carries one scratch arena.
pub(crate) fn materialize_range_into(
    model: &PowerModel,
    jobs: &[ScheduledJob],
    params: &[JobPowerParams],
    instrumented_flags: &[bool],
    range: std::ops::Range<usize>,
    telemetry: bool,
    out: &mut MaterializedJobs,
) {
    out.summaries.clear();
    out.series.clear();
    out.offsets.clear();
    out.offsets.push(0);
    let mut total_minutes = 0usize;
    for job in &jobs[range.clone()] {
        total_minutes += (job.end_min - job.start_min) as usize;
        out.offsets.push(total_minutes);
    }
    out.columns.clear();
    out.columns.resize(total_minutes, 0.0);

    // Carve the column into one disjoint window per job.
    let mut tasks: Vec<(usize, &mut [f64])> = Vec::with_capacity(range.len());
    let mut rest = out.columns.as_mut_slice();
    for (k, i) in range.enumerate() {
        let (window, tail) = rest.split_at_mut(out.offsets[k + 1] - out.offsets[k]);
        tasks.push((i, window));
        rest = tail;
    }

    // Parallel, order-preserving materialization; each worker allocates
    // one scratch arena and reuses it for every job in its chunk.
    let results: Vec<(JobPowerSummary, Option<JobSeries>)> = tasks
        .into_par_iter()
        .map_init(
            || KernelScratch::new(model),
            |scratch, (i, window)| {
                let (mut summary, series) = summarize_job_columnar(
                    model,
                    &jobs[i],
                    &params[i],
                    instrumented_flags[i],
                    scratch,
                    window,
                    telemetry,
                );
                summary.id = JobId::from_index(i);
                let series = series.map(|mut s| {
                    s.id = JobId::from_index(i);
                    s
                });
                (summary, series)
            },
        )
        .collect();
    for (summary, series) in results {
        out.summaries.push(summary);
        out.series.push(series);
    }
}

/// Runs the monitoring pipeline over all scheduled jobs.
///
/// `params[i]` must describe `jobs[i]`. Summaries come back in input
/// order with `id = input index`; callers re-key the ids when building a
/// dataset. The system series covers `[0, horizon_min)`.
///
/// Output is bit-identical for every thread count: jobs are sampled in
/// parallel (each job's power stream is keyed purely by its params, so
/// per-job work is order-independent), while the shared system series is
/// reduced serially in job order over fixed-size batches.
pub fn monitor(
    model: &PowerModel,
    jobs: &[ScheduledJob],
    params: &[JobPowerParams],
    horizon_min: u64,
    instrumented_flags: &[bool],
) -> MonitorOutput {
    assert_eq!(jobs.len(), params.len(), "jobs/params must align");
    assert_eq!(jobs.len(), instrumented_flags.len());
    let telemetry = hpcpower_obs::enabled();
    let monitor_start = std::time::Instant::now();

    let mut fold = SystemFold::new(horizon_min);
    let mut summaries = Vec::with_capacity(jobs.len());
    let mut instrumented = Vec::new();
    // One materialization buffer reused across batches (the offset
    // table maps job k of the batch to
    // `columns[offsets[k]..offsets[k + 1]]`), so the steady-state loop
    // allocates nothing.
    let mut batch = MaterializedJobs::default();

    for batch_start in (0..jobs.len()).step_by(BATCH_JOBS) {
        let batch_end = (batch_start + BATCH_JOBS).min(jobs.len());
        materialize_range_into(
            model,
            jobs,
            params,
            instrumented_flags,
            batch_start..batch_end,
            telemetry,
            &mut batch,
        );
        if telemetry {
            hpcpower_obs::counter_add("sim.kernel.batch_jobs", (batch_end - batch_start) as u64);
            // One temporal-factor fill plus one fused noise/flare row per
            // rank, counted per batch to keep the counter off the per-job
            // hot path.
            let stride_fills: u64 = jobs[batch_start..batch_end]
                .iter()
                .map(|j| 1 + j.request.nodes as u64)
                .sum();
            hpcpower_obs::counter_add("sim.kernel.rng_stride_fills", stride_fills);
        }

        // Serial fold in job order: the only stage where jobs interact.
        // Addition order is identical to the pre-columnar code — job k's
        // minutes in ascending order, jobs in input order.
        for (k, (summary, series)) in batch
            .summaries
            .drain(..)
            .zip(batch.series.drain(..))
            .enumerate()
        {
            summaries.push(summary);
            if let Some(s) = series {
                instrumented.push(s);
            }
            let column = &batch.columns[batch.offsets[k]..batch.offsets[k + 1]];
            fold.fold_job(&jobs[batch_start + k], column);
        }
    }

    if telemetry {
        let samples: u64 = jobs
            .iter()
            .map(|j| j.request.nodes as u64 * (j.end_min - j.start_min))
            .sum();
        hpcpower_obs::counter_add("sim.monitor.samples", samples);
        let secs = monitor_start.elapsed().as_secs_f64();
        if secs > 0.0 {
            hpcpower_obs::gauge_set("sim.monitor.samples_per_s", samples as f64 / secs);
        }
    }

    MonitorOutput {
        summaries,
        system_series: fold.into_system_series(),
        instrumented,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModelConfig;
    use crate::workload::JobRequest;

    fn job(idx: usize, start: u64, runtime: u64, nodes: u32, app: u32) -> ScheduledJob {
        ScheduledJob {
            request_idx: idx,
            request: JobRequest {
                user: 0,
                template: 0,
                app,
                submit_min: start,
                nodes,
                walltime_req_min: runtime + 30,
                runtime_min: runtime,
            },
            start_min: start,
            end_min: start + runtime,
            node_ids: (0..nodes).collect(),
        }
    }

    fn flat_params(key: u64, base: f64) -> JobPowerParams {
        JobPowerParams {
            key,
            base_w: base,
            imbalance_sigma: 0.05,
            spike_frac: 0.0,
            spike_amp: 0.0,
            dip_frac: 0.0,
            dip_amp: 0.0,
        }
    }

    fn model() -> PowerModel {
        PowerModel::new(PowerModelConfig::default(), 7)
    }

    #[test]
    fn summaries_match_job_count_and_order() {
        let jobs = vec![job(0, 0, 60, 2, 0), job(1, 10, 120, 4, 0)];
        let params = vec![flat_params(1, 100.0), flat_params(2, 150.0)];
        let out = monitor(&model(), &jobs, &params, 200, &[false, false]);
        assert_eq!(out.summaries.len(), 2);
        assert_eq!(out.summaries[0].id, JobId(0));
        assert_eq!(out.summaries[1].id, JobId(1));
        assert!((out.summaries[0].per_node_power_w - 100.0).abs() < 8.0);
        assert!((out.summaries[1].per_node_power_w - 150.0).abs() < 8.0);
    }

    #[test]
    fn system_series_accounts_active_nodes() {
        let jobs = vec![job(0, 0, 50, 2, 0), job(1, 20, 50, 3, 0)];
        let params = vec![flat_params(1, 100.0), flat_params(2, 100.0)];
        let out = monitor(&model(), &jobs, &params, 100, &[false, false]);
        assert_eq!(out.system_series.len(), 100);
        assert_eq!(out.system_series[0].active_nodes, 2);
        assert_eq!(out.system_series[25].active_nodes, 5);
        assert_eq!(out.system_series[60].active_nodes, 3);
        assert_eq!(out.system_series[80].active_nodes, 0);
        assert_eq!(out.system_series[80].total_power_w, 0.0);
        assert!(out.system_series[25].total_power_w > out.system_series[0].total_power_w);
    }

    #[test]
    fn energy_equals_series_integral() {
        let jobs = vec![job(0, 0, 30, 3, 0)];
        let params = vec![flat_params(3, 120.0)];
        let out = monitor(&model(), &jobs, &params, 40, &[true]);
        assert_eq!(out.instrumented.len(), 1);
        let series = &out.instrumented[0];
        let integral: f64 = series.node_energies().iter().sum();
        assert!((integral - out.summaries[0].energy_wmin).abs() < 1e-6);
        // Per-node power from the series matches the summary.
        assert!((series.per_node_power() - out.summaries[0].per_node_power_w).abs() < 1e-9);
    }

    #[test]
    fn instrumented_selection_respects_filters() {
        let jobs = vec![
            job(0, 0, 60, 1, 0),   // too few nodes
            job(1, 0, 60, 4, 0),   // ok
            job(2, 500, 60, 4, 0), // outside window
            job(3, 0, 60, 4, 1),   // ineligible app
        ];
        let cfg = InstrumentConfig {
            start_min: 0,
            end_min: 100,
            min_nodes: 2,
            sample_budget: 1_000_000,
        };
        let flags = select_instrumented(&jobs, &[true, false], &cfg);
        assert_eq!(flags, vec![false, true, false, false]);
    }

    #[test]
    fn instrumented_selection_respects_budget() {
        let jobs = vec![job(0, 0, 100, 4, 0), job(1, 0, 100, 4, 0)];
        let cfg = InstrumentConfig {
            sample_budget: 450, // only the first job (400 samples) fits
            ..Default::default()
        };
        let flags = select_instrumented(&jobs, &[true], &cfg);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let jobs = vec![job(0, 0, 100, 4, 0), job(1, 0, 100, 2, 0)];
        let cfg = InstrumentConfig {
            sample_budget: 0,
            ..Default::default()
        };
        let flags = select_instrumented(&jobs, &[true], &cfg);
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    fn budget_below_smallest_job_selects_nothing() {
        // Smallest eligible job needs 2 nodes * 100 min = 200 samples;
        // a budget of 199 admits neither job, and later (larger) jobs
        // must not be admitted either.
        let jobs = vec![job(0, 0, 100, 2, 0), job(1, 0, 100, 4, 0)];
        let cfg = InstrumentConfig {
            sample_budget: 199,
            ..Default::default()
        };
        let flags = select_instrumented(&jobs, &[true], &cfg);
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    fn budget_skips_big_job_but_admits_later_smaller_one() {
        // The selector walks in input order and keeps any job that still
        // fits: the 400-sample job is skipped, the later 200-sample job
        // fits the 250-sample budget.
        let jobs = vec![job(0, 0, 100, 4, 0), job(1, 0, 100, 2, 0)];
        let cfg = InstrumentConfig {
            sample_budget: 250,
            ..Default::default()
        };
        let flags = select_instrumented(&jobs, &[true], &cfg);
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn window_excluding_all_jobs_selects_nothing() {
        let jobs = vec![job(0, 10, 100, 4, 0), job(1, 50, 100, 4, 0)];
        let cfg = InstrumentConfig {
            start_min: 1_000,
            end_min: 2_000,
            ..Default::default()
        };
        let flags = select_instrumented(&jobs, &[true], &cfg);
        assert_eq!(flags, vec![false, false]);
        // An empty window (start == end) excludes everything too.
        let cfg = InstrumentConfig {
            start_min: 0,
            end_min: 0,
            ..Default::default()
        };
        let flags = select_instrumented(&jobs, &[true], &cfg);
        assert_eq!(flags, vec![false, false]);
    }

    #[test]
    fn single_node_job_has_zero_spatial_metrics() {
        let jobs = vec![job(0, 0, 60, 1, 0)];
        let params = vec![flat_params(9, 90.0)];
        let out = monitor(&model(), &jobs, &params, 100, &[false]);
        let s = &out.summaries[0];
        assert_eq!(s.avg_spatial_spread_w, 0.0);
        assert_eq!(s.energy_imbalance, 0.0);
    }

    #[test]
    fn flat_job_rarely_exceeds_ten_pct_above_mean() {
        let jobs = vec![job(0, 0, 400, 4, 0)];
        let params = vec![flat_params(11, 140.0)];
        let out = monitor(&model(), &jobs, &params, 500, &[false]);
        let s = &out.summaries[0];
        // Common noise sigma is 3%: +10% is a 3.3-sigma event.
        assert!(
            s.frac_time_above_10pct < 0.02,
            "{}",
            s.frac_time_above_10pct
        );
        assert!(s.peak_overshoot < 0.25, "{}", s.peak_overshoot);
        assert!(s.temporal_cv < 0.08, "{}", s.temporal_cv);
    }

    #[test]
    fn bursty_job_spends_time_above_mean() {
        let jobs = vec![job(0, 0, 600, 4, 0)];
        let params = vec![JobPowerParams {
            key: 13,
            base_w: 140.0,
            imbalance_sigma: 0.04,
            spike_frac: 0.3,
            spike_amp: 0.25,
            dip_frac: 0.0,
            dip_amp: 0.0,
        }];
        let out = monitor(&model(), &jobs, &params, 700, &[false]);
        let s = &out.summaries[0];
        assert!(
            s.frac_time_above_10pct > 0.05,
            "bursty job should sit above mean sometimes: {}",
            s.frac_time_above_10pct
        );
        assert!(s.peak_overshoot > 0.1);
    }

    /// f64-bit-level summary comparison: a 1-minute job has NaN
    /// `temporal_cv` on both paths, which `==` would call unequal.
    fn assert_summary_bits_eq(a: &JobPowerSummary, b: &JobPowerSummary, job: usize) {
        assert_eq!(a.id, b.id, "id for job {job}");
        for (field, x, y) in [
            ("per_node_power_w", a.per_node_power_w, b.per_node_power_w),
            ("energy_wmin", a.energy_wmin, b.energy_wmin),
            ("peak_overshoot", a.peak_overshoot, b.peak_overshoot),
            (
                "frac_time_above_10pct",
                a.frac_time_above_10pct,
                b.frac_time_above_10pct,
            ),
            ("temporal_cv", a.temporal_cv, b.temporal_cv),
            (
                "avg_spatial_spread_w",
                a.avg_spatial_spread_w,
                b.avg_spatial_spread_w,
            ),
            (
                "frac_time_spread_above_avg",
                a.frac_time_spread_above_avg,
                b.frac_time_spread_above_avg,
            ),
            ("energy_imbalance", a.energy_imbalance, b.energy_imbalance),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{field} for job {job}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn columnar_kernel_matches_scalar_reference_bitwise() {
        // The production reuse pattern: ONE scratch arena carried across
        // a mixed bag of jobs (multi-node, single-node, instrumented or
        // not, bursty and flat, lengths off the phase-block grid), each
        // compared bit-for-bit against the scalar reference path.
        let jobs_v = [
            job(0, 0, 97, 5, 0),
            job(1, 10, 1, 1, 0),
            job(2, 3, 240, 8, 0),
            job(3, 50, 33, 2, 0),
            job(4, 0, 6, 3, 0),
        ];
        let params_v = [
            flat_params(101, 120.0),
            flat_params(202, 80.0),
            JobPowerParams {
                key: 303,
                base_w: 150.0,
                imbalance_sigma: 0.06,
                spike_frac: 0.3,
                spike_amp: 0.2,
                dip_frac: 0.1,
                dip_amp: 0.15,
            },
            flat_params(404, 95.0),
            flat_params(505, 200.0),
        ];
        let keep = [true, false, true, false, true];
        let no_flare = PowerModelConfig {
            flare_prob: 0.0,
            ..Default::default()
        };
        for m in [model(), PowerModel::new(no_flare, 7)] {
            let mut scratch = KernelScratch::new(&m);
            for (i, job) in jobs_v.iter().enumerate() {
                let minutes = (job.end_min - job.start_min) as usize;
                let mut column = vec![0.0; minutes];
                let (sum_c, ser_c) = summarize_job_columnar(
                    &m,
                    job,
                    &params_v[i],
                    keep[i],
                    &mut scratch,
                    &mut column,
                    false,
                );
                let mut triples = Vec::new();
                let (sum_s, ser_s) =
                    summarize_job(&m, job, &params_v[i], keep[i], |minute, power, nodes| {
                        triples.push((minute, power, nodes))
                    });
                assert_summary_bits_eq(&sum_c, &sum_s, i);
                assert_eq!(ser_c, ser_s, "series for job {i}");
                assert_eq!(triples.len(), minutes);
                for (t, (minute, power, nodes)) in triples.into_iter().enumerate() {
                    assert_eq!(minute, job.start_min + t as u64);
                    assert_eq!(nodes, job.request.nodes);
                    assert_eq!(power, column[t], "minute power for job {i} at {t}");
                }
            }
        }
    }

    #[test]
    fn disabled_telemetry_records_no_kernel_metrics() {
        // Unit tests never enable the obs registry, so a monitor run here
        // must leave no trace of the kernel metrics — the telemetry-off
        // hot loop takes the `telemetry == false` branch everywhere.
        let jobs = vec![job(0, 0, 60, 4, 0), job(1, 5, 40, 2, 0)];
        let params = vec![flat_params(31, 110.0), flat_params(32, 90.0)];
        let out = monitor(&model(), &jobs, &params, 100, &[true, false]);
        assert_eq!(out.summaries.len(), 2);
        let snap = hpcpower_obs::snapshot();
        for name in [
            "sim.kernel.batch_jobs",
            "sim.kernel.rng_stride_fills",
            "sim.monitor.samples",
        ] {
            assert!(
                snap.counter(name).is_none(),
                "{name} recorded with telemetry disabled"
            );
        }
        assert!(
            !snap
                .histograms
                .iter()
                .any(|(k, _)| k == "sim.kernel.scratch_bytes"),
            "scratch histogram recorded with telemetry disabled"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let jobs = vec![job(0, 0, 100, 8, 0), job(1, 50, 80, 2, 0)];
        let params = vec![flat_params(21, 130.0), flat_params(22, 80.0)];
        let a = monitor(&model(), &jobs, &params, 200, &[true, false]);
        let b = monitor(&model(), &jobs, &params, 200, &[true, false]);
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.system_series, b.system_series);
        assert_eq!(a.instrumented, b.instrumented);
    }
}
