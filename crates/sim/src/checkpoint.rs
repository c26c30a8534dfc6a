//! Chunked checkpointing: crash-safe, resumable `simulate` runs that
//! are **provably byte-identical** to uninterrupted ones.
//!
//! ## Why this can be exact
//!
//! The simulation pipeline splits into a cheap deterministic front half
//! (population → arrivals → schedule → per-job power parameters;
//! [`ClusterSim::prepare`]) and the dominant telemetry materialization.
//! Materialization is *pure per job* — every job's minute-power column
//! and summary is a function of its params alone — and jobs only
//! interact in the serial system fold
//! ([`crate::monitor::SystemFold`]), which adds columns job by job in
//! input order. A checkpoint chunk therefore stores the **raw per-job
//! columns** (exact `f64` bits, no reduction), and the finalizer
//! replays the very same fold over them: the float addition sequence
//! is identical to a monolithic run, at any chunk size and any thread
//! count, so the dataset bytes are identical. Summaries and retained
//! series are stored bit-exactly too.
//!
//! ## Run-directory layout
//!
//! ```text
//! RUN_DIR/
//!   config.json (+ .manifest.json)   RunMeta: SimConfig + chunk size
//!   journal.jsonl                    one fsync'd line per committed chunk
//!   chunks/chunk-000042.bin (+ .manifest.json)
//!   COMPLETE (+ .manifest.json)      written after the final dataset fold
//! ```
//!
//! Every artifact goes through [`hpcpower_trace::recover::atomic_write`]
//! (temp + fsync + rename + manifest). The journal is append-only with
//! an fsync per line, so at most its final line can be torn; unparsable
//! lines are ignored. On start (fresh or `--resume`) the runner sweeps
//! `chunks/` — stray temps deleted, torn chunks quarantined to
//! `*.torn` — then re-materializes exactly the chunks that are not
//! both journaled and verified. A chunk the journal claims but whose
//! file fails verification is quarantined and redone; **no torn file
//! is ever left in place without a quarantine marker**.
//!
//! ## Chaos hooks
//!
//! [`ChaosPlan`] injects deterministic process-level faults at chunk
//! boundaries — SIGKILL self, an in-process interrupt (for tests that
//! need the error back), or a stall (for watchdog coverage). The CLI
//! exposes them as `simulate --chaos-kill-after-chunk` and
//! `--chaos-stall-at-chunk`; `tests/checkpoint_resume.rs` drives them
//! in process, together with [`hpcpower_trace::recover::ChaosFs`]
//! filesystem faults.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use hpcpower_trace::recover::{self, ArtifactState, Fs};
use hpcpower_trace::{JobPowerSummary, JobId, JobSeries};

use crate::cluster::{ClusterSim, SimOutput};
use crate::config::SimConfig;
use crate::monitor::{materialize_range_into, MaterializedJobs, MonitorOutput, SystemFold};
use crate::pool::with_threads;
use crate::scheduler::ScheduledJob;

/// Default jobs per checkpoint chunk: large enough that journal and
/// manifest overhead vanishes, small enough that a kill loses at most
/// a few hundred jobs' worth of materialization.
pub const DEFAULT_CHUNK_JOBS: usize = 512;

const CHUNK_MAGIC: &[u8; 8] = b"HPCKPT01";
const CONFIG_FILE: &str = "config.json";
const JOURNAL_FILE: &str = "journal.jsonl";
const CHUNKS_DIR: &str = "chunks";
const COMPLETE_FILE: &str = "COMPLETE";

/// Deterministic process-level fault injection at chunk boundaries.
/// All hooks fire *after* the named chunk has been committed (chunk
/// artifact durable, journal line appended) — the crash window the
/// resume contract is stated over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// SIGKILL the current process after committing this chunk — the
    /// real-crash path used by the CLI chaos harness and tier-1 smoke.
    pub kill_after_chunk: Option<u64>,
    /// Return [`CheckpointError::Interrupted`] after committing this
    /// chunk — the in-process stand-in for a kill, usable from unit
    /// tests that need the run directory back in the same process.
    pub stop_after_chunk: Option<u64>,
    /// Sleep this long before materializing the named chunk — a
    /// stalled stage for `--stage-timeout` watchdog coverage.
    pub stall_before_chunk: Option<(u64, std::time::Duration)>,
}

/// Where and how to checkpoint a run.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// The resumable run directory (created if absent).
    pub run_dir: PathBuf,
    /// Jobs per chunk. An existing run directory's recorded chunk size
    /// always wins — chunk boundaries must never move mid-run.
    pub chunk_jobs: usize,
    /// Fault injection plan (default: no faults).
    pub chaos: ChaosPlan,
}

impl CheckpointOptions {
    /// Options for `run_dir` with the default chunk size and no chaos.
    pub fn new(run_dir: impl Into<PathBuf>) -> Self {
        Self {
            run_dir: run_dir.into(),
            chunk_jobs: DEFAULT_CHUNK_JOBS,
            chaos: ChaosPlan::default(),
        }
    }
}

/// Errors from the checkpoint layer, split by how the CLI must exit:
/// `Interrupted` is resumable (exit 6), the rest are not (exit 5, or 2
/// for config misuse).
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (disk full, permissions, ...).
    Io(io::Error),
    /// The run directory belongs to a different workload, or is not a
    /// run directory at all.
    Config(String),
    /// A run-directory artifact is damaged beyond the automatic
    /// quarantine-and-redo recovery.
    Corrupt(String),
    /// The run stopped at a chunk boundary and can be resumed with
    /// `--resume` (only produced by [`ChaosPlan::stop_after_chunk`]).
    Interrupted {
        /// Chunks committed so far.
        committed: u64,
        /// Total chunks the run needs.
        total: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Config(m) => write!(f, "checkpoint config error: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "checkpoint corruption: {m}"),
            CheckpointError::Interrupted { committed, total } => write!(
                f,
                "run interrupted at a chunk boundary ({committed}/{total} chunks committed); \
                 resume with --resume"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The metadata pinned into `config.json` when a run directory is
/// created; resume attempts against a different workload are refused.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeta {
    /// Format version of the run directory.
    pub version: u32,
    /// The simulation this directory belongs to.
    pub sim: SimConfig,
    /// Jobs per chunk — defines the chunk boundaries for the whole
    /// lifetime of the directory.
    pub chunk_jobs: usize,
}

/// `true` when the two configs describe the same workload. The thread
/// count is excluded on purpose: output is bit-identical at any thread
/// count, so resuming with different parallelism is safe and allowed.
fn same_workload(a: &SimConfig, b: &SimConfig) -> bool {
    let mut a = a.clone();
    let mut b = b.clone();
    a.threads = 0;
    b.threads = 0;
    a == b
}

fn chunk_path(run_dir: &Path, chunk: u64) -> PathBuf {
    run_dir.join(CHUNKS_DIR).join(format!("chunk-{chunk:06}.bin"))
}

/// One committed-chunk journal line.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
struct JournalEntry {
    chunk: u64,
    job_start: u64,
    job_end: u64,
}

/// Runs `simulate` with chunked checkpointing into `opts.run_dir`.
///
/// Fresh directories are initialized; directories holding a compatible
/// interrupted run are *resumed* — committed chunks are verified and
/// skipped, torn ones quarantined and redone. The returned
/// [`SimOutput`] is byte-identical to `ClusterSim::new(cfg).run()` for
/// the same config, at any chunk size and thread count.
pub fn run_checkpointed(
    cfg: &SimConfig,
    opts: &CheckpointOptions,
    fs: &dyn Fs,
) -> Result<SimOutput, CheckpointError> {
    let sim = ClusterSim::new(cfg.clone());
    with_threads(cfg.threads, || run_inner(&sim, opts, fs))
}

/// Resumes the run recorded in `run_dir` (`--resume`): re-derives the
/// deterministic front half from the pinned config, skips verified
/// chunks, redoes the rest. `threads` overrides the recorded worker
/// count — the dataset does not depend on it.
pub fn resume(
    run_dir: &Path,
    threads: Option<usize>,
    fs: &dyn Fs,
) -> Result<SimOutput, CheckpointError> {
    let meta = load_meta(run_dir)?;
    let mut cfg = meta.sim.clone();
    if let Some(t) = threads {
        cfg.threads = t;
    }
    let opts = CheckpointOptions {
        run_dir: run_dir.to_path_buf(),
        chunk_jobs: meta.chunk_jobs,
        chaos: ChaosPlan::default(),
    };
    run_checkpointed(&cfg, &opts, fs)
}

/// Reads and verifies a run directory's pinned [`RunMeta`].
pub fn load_meta(run_dir: &Path) -> Result<RunMeta, CheckpointError> {
    let config_path = run_dir.join(CONFIG_FILE);
    match recover::verify(&config_path) {
        ArtifactState::Verified(_) => {}
        ArtifactState::Missing => {
            return Err(CheckpointError::Config(format!(
                "{} is not a run directory (no {CONFIG_FILE})",
                run_dir.display()
            )));
        }
        ArtifactState::Torn(why) => {
            return Err(CheckpointError::Corrupt(format!(
                "{CONFIG_FILE} is torn ({why}); the run directory cannot be trusted"
            )));
        }
    }
    let raw = std::fs::read_to_string(&config_path)?;
    serde_json::from_str(&raw)
        .map_err(|e| CheckpointError::Corrupt(format!("{CONFIG_FILE} unparsable: {e}")))
}

/// Pins or validates the run-directory metadata for this attempt.
fn establish_meta(
    cfg: &SimConfig,
    opts: &CheckpointOptions,
    fs: &dyn Fs,
) -> Result<RunMeta, CheckpointError> {
    let config_path = opts.run_dir.join(CONFIG_FILE);
    let requested = RunMeta {
        version: 1,
        sim: cfg.clone(),
        chunk_jobs: opts.chunk_jobs.max(1),
    };
    match recover::verify(&config_path) {
        ArtifactState::Verified(_) => {
            let raw = std::fs::read_to_string(&config_path)?;
            let existing: RunMeta = serde_json::from_str(&raw).map_err(|e| {
                CheckpointError::Corrupt(format!("{CONFIG_FILE} unparsable: {e}"))
            })?;
            if !same_workload(&existing.sim, &requested.sim) {
                return Err(CheckpointError::Config(format!(
                    "run directory {} was created for a different workload; \
                     refusing to mix checkpoints",
                    opts.run_dir.display()
                )));
            }
            // The directory's chunk size wins: boundaries must not move.
            Ok(RunMeta {
                sim: cfg.clone(),
                ..existing
            })
        }
        state => {
            if matches!(state, ArtifactState::Torn(_)) {
                // A crash during directory creation: nothing can have
                // been journaled against this config yet, so quarantine
                // the debris and re-pin.
                recover::quarantine(fs, &config_path)?;
            }
            let body = serde_json::to_string_pretty(&requested).map_err(|e| {
                CheckpointError::Corrupt(format!("config serialization failed: {e}"))
            })?;
            recover::atomic_write(fs, &config_path, body.as_bytes())?;
            Ok(requested)
        }
    }
}

/// Parses the journal, tolerating a torn final line (append + fsync
/// per line means nothing earlier can be torn). Later entries for the
/// same chunk win — a redone chunk appends a fresh line.
fn read_journal(run_dir: &Path) -> Result<BTreeMap<u64, JournalEntry>, CheckpointError> {
    let path = run_dir.join(JOURNAL_FILE);
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(e.into()),
    };
    let mut entries = BTreeMap::new();
    for line in raw.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<JournalEntry>(line) {
            Ok(entry) => {
                entries.insert(entry.chunk, entry);
            }
            Err(_) => {
                hpcpower_obs::counter_add("obs.recover.journal_torn_lines", 1);
            }
        }
    }
    Ok(entries)
}

fn run_inner(
    sim: &ClusterSim,
    opts: &CheckpointOptions,
    fs: &dyn Fs,
) -> Result<SimOutput, CheckpointError> {
    let _span = hpcpower_obs::span!("simulate.checkpointed");
    let cfg = sim.config();
    let run_dir = &opts.run_dir;
    let chunks_dir = run_dir.join(CHUNKS_DIR);
    std::fs::create_dir_all(&chunks_dir)?;
    let meta = establish_meta(cfg, opts, fs)?;
    let chunk_jobs = meta.chunk_jobs.max(1);

    // Startup recovery: delete stray temps, quarantine torn chunks.
    let scan = hpcpower_obs::time("checkpoint.recover", || {
        recover::scan_dir(fs, &chunks_dir)
    })?;
    if !scan.quarantined.is_empty() {
        eprintln!(
            "checkpoint: quarantined {} torn chunk(s) in {}",
            scan.quarantined.len(),
            chunks_dir.display()
        );
    }
    let journal = read_journal(run_dir)?;

    // Deterministic front half (cheap relative to materialization).
    let prep = hpcpower_obs::time("checkpoint.prepare", || sim.prepare());
    let n_jobs = prep.placed.len();
    let n_chunks = (n_jobs as u64).div_ceil(chunk_jobs as u64);
    let telemetry = hpcpower_obs::enabled();

    // Materialize-and-commit every chunk the journal cannot vouch for.
    let mut mat = MaterializedJobs::default();
    let mut committed = 0u64;
    for chunk in 0..n_chunks {
        let job_start = chunk as usize * chunk_jobs;
        let job_end = (job_start + chunk_jobs).min(n_jobs);
        let path = chunk_path(run_dir, chunk);
        if let Some(entry) = journal.get(&chunk) {
            if (entry.job_start, entry.job_end) != (job_start as u64, job_end as u64) {
                return Err(CheckpointError::Corrupt(format!(
                    "journal chunk {chunk} covers jobs [{}, {}) but this workload \
                     expects [{job_start}, {job_end})",
                    entry.job_start, entry.job_end
                )));
            }
            match recover::verify(&path) {
                ArtifactState::Verified(_) => {
                    hpcpower_obs::counter_add("obs.recover.chunks_skipped", 1);
                    committed += 1;
                    continue;
                }
                // Journaled but not verifiable (scan_dir already
                // quarantined torn files; Missing covers both that and
                // a lost rename): redo the chunk.
                ArtifactState::Missing => {}
                ArtifactState::Torn(_) => {
                    recover::quarantine(fs, &path)?;
                }
            }
        }

        if let Some((at, dur)) = opts.chaos.stall_before_chunk {
            if at == chunk {
                std::thread::sleep(dur);
            }
        }

        hpcpower_obs::time("checkpoint.materialize", || {
            materialize_range_into(
                &prep.model,
                &prep.placed,
                &prep.job_params,
                &prep.flags,
                job_start..job_end,
                telemetry,
                &mut mat,
            )
        });
        let bytes = encode_chunk(chunk, job_start as u64, &prep.placed[job_start..job_end], &mat);
        hpcpower_obs::time("checkpoint.commit", || {
            recover::atomic_write(fs, &path, &bytes)
        })?;
        let entry = JournalEntry {
            chunk,
            job_start: job_start as u64,
            job_end: job_end as u64,
        };
        let line = serde_json::to_string(&entry)
            .map_err(|e| CheckpointError::Corrupt(format!("journal encode failed: {e}")))?;
        fs.append_sync(run_dir.join(JOURNAL_FILE).as_path(), format!("{line}\n").as_bytes())?;
        hpcpower_obs::counter_add("obs.recover.chunks_committed", 1);
        hpcpower_obs::watchdog::beat_if_armed();
        committed += 1;

        if opts.chaos.kill_after_chunk == Some(chunk) {
            kill_self_hard();
        }
        if opts.chaos.stop_after_chunk == Some(chunk) {
            return Err(CheckpointError::Interrupted {
                committed,
                total: n_chunks,
            });
        }
    }

    // Finalize from disk: every chunk is re-read and re-verified, so
    // the dataset provably comes from durable artifacts — the resumed
    // and uninterrupted paths converge on the exact same bytes here.
    let out = hpcpower_obs::time("checkpoint.finalize", || {
        finalize(run_dir, n_chunks, chunk_jobs, n_jobs, cfg.horizon_min, &prep.placed)
    })?;
    let result = sim.finish(prep, out);
    recover::atomic_write(fs, &run_dir.join(COMPLETE_FILE), b"ok\n")?;
    Ok(result)
}

fn finalize(
    run_dir: &Path,
    n_chunks: u64,
    chunk_jobs: usize,
    n_jobs: usize,
    horizon_min: u64,
    placed: &[ScheduledJob],
) -> Result<MonitorOutput, CheckpointError> {
    let mut fold = SystemFold::new(horizon_min);
    let mut summaries = Vec::with_capacity(n_jobs);
    let mut instrumented = Vec::new();
    for chunk in 0..n_chunks {
        let path = chunk_path(run_dir, chunk);
        if let ArtifactState::Torn(why) = recover::verify(&path) {
            return Err(CheckpointError::Corrupt(format!(
                "chunk {chunk} failed verification at finalize: {why}"
            )));
        }
        let bytes = std::fs::read(&path)?;
        let job_start = chunk as usize * chunk_jobs;
        let job_end = (job_start + chunk_jobs).min(n_jobs);
        let decoded = decode_chunk(&bytes, chunk, job_start as u64, job_end as u64)?;
        for (k, (summary, series)) in decoded
            .summaries
            .into_iter()
            .zip(decoded.series)
            .enumerate()
        {
            summaries.push(summary);
            if let Some(s) = series {
                instrumented.push(s);
            }
            let column = &decoded.columns[decoded.offsets[k]..decoded.offsets[k + 1]];
            fold.fold_job(&placed[job_start + k], column);
        }
    }
    Ok(MonitorOutput {
        summaries,
        system_series: fold.into_system_series(),
        instrumented,
    })
}

/// SIGKILL the current process — a real, non-unwinding death, exactly
/// what the kill-resume byte-identity contract is stated over.
fn kill_self_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    // SIGKILL may take a scheduler tick to land; abort() as a backstop
    // so this function can never return.
    std::process::abort();
}

// ---------------------------------------------------------------------------
// Binary chunk format
// ---------------------------------------------------------------------------
//
// JSON is unusable here: the workspace serde_json shim cannot round-trip
// non-finite floats (a 1-minute job's `temporal_cv` is NaN), and chunk
// payloads are bulk f64 data anyway. The format is little-endian and
// exact: every f64 travels as `to_bits`.
//
//   magic "HPCKPT01"
//   u64 chunk_index | u64 job_start | u64 job_end
//   per job:
//     u64 global job index
//     8 × f64  summary fields (declaration order)
//     u64 column_len | column f64s
//     u8 has_series | [u32 nodes | u32 minutes | nodes*minutes f64s]

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CheckpointError::Corrupt(format!(
                "chunk truncated at byte {} (wanted {n} more)",
                self.pos
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn encode_chunk(
    chunk: u64,
    job_start: u64,
    jobs: &[ScheduledJob],
    mat: &MaterializedJobs,
) -> Vec<u8> {
    debug_assert_eq!(jobs.len(), mat.summaries.len());
    let mut buf = Vec::with_capacity(64 + mat.columns.len() * 8);
    buf.extend_from_slice(CHUNK_MAGIC);
    put_u64(&mut buf, chunk);
    put_u64(&mut buf, job_start);
    put_u64(&mut buf, job_start + jobs.len() as u64);
    for (k, summary) in mat.summaries.iter().enumerate() {
        put_u64(&mut buf, summary.id.index() as u64);
        put_f64(&mut buf, summary.per_node_power_w);
        put_f64(&mut buf, summary.energy_wmin);
        put_f64(&mut buf, summary.peak_overshoot);
        put_f64(&mut buf, summary.frac_time_above_10pct);
        put_f64(&mut buf, summary.temporal_cv);
        put_f64(&mut buf, summary.avg_spatial_spread_w);
        put_f64(&mut buf, summary.frac_time_spread_above_avg);
        put_f64(&mut buf, summary.energy_imbalance);
        let column = &mat.columns[mat.offsets[k]..mat.offsets[k + 1]];
        put_u64(&mut buf, column.len() as u64);
        for &w in column {
            put_f64(&mut buf, w);
        }
        match &mat.series[k] {
            Some(series) => {
                buf.push(1);
                put_u32(&mut buf, series.nodes());
                put_u32(&mut buf, series.minutes());
                for node in 0..series.nodes() {
                    for &w in series.node_row(node) {
                        put_f64(&mut buf, w);
                    }
                }
            }
            None => buf.push(0),
        }
    }
    buf
}

/// A decoded chunk, shaped like [`MaterializedJobs`] so the finalizer
/// folds it through the identical code path.
struct DecodedChunk {
    summaries: Vec<JobPowerSummary>,
    series: Vec<Option<JobSeries>>,
    columns: Vec<f64>,
    offsets: Vec<usize>,
}

fn decode_chunk(
    bytes: &[u8],
    expect_chunk: u64,
    expect_start: u64,
    expect_end: u64,
) -> Result<DecodedChunk, CheckpointError> {
    let mut cur = Cursor { buf: bytes, pos: 0 };
    if cur.take(8)? != CHUNK_MAGIC {
        return Err(CheckpointError::Corrupt("bad chunk magic".to_string()));
    }
    let (chunk, job_start, job_end) = (cur.u64()?, cur.u64()?, cur.u64()?);
    if (chunk, job_start, job_end) != (expect_chunk, expect_start, expect_end) {
        return Err(CheckpointError::Corrupt(format!(
            "chunk header says chunk {chunk} jobs [{job_start}, {job_end}), \
             expected chunk {expect_chunk} jobs [{expect_start}, {expect_end})"
        )));
    }
    let n = (job_end - job_start) as usize;
    let mut out = DecodedChunk {
        summaries: Vec::with_capacity(n),
        series: Vec::with_capacity(n),
        columns: Vec::new(),
        offsets: Vec::with_capacity(n + 1),
    };
    out.offsets.push(0);
    for k in 0..n {
        let id = cur.u64()?;
        if id != job_start + k as u64 {
            return Err(CheckpointError::Corrupt(format!(
                "chunk {chunk}: job {k} carries id {id}, expected {}",
                job_start + k as u64
            )));
        }
        let summary = JobPowerSummary {
            id: JobId::from_index(id as usize),
            per_node_power_w: cur.f64()?,
            energy_wmin: cur.f64()?,
            peak_overshoot: cur.f64()?,
            frac_time_above_10pct: cur.f64()?,
            temporal_cv: cur.f64()?,
            avg_spatial_spread_w: cur.f64()?,
            frac_time_spread_above_avg: cur.f64()?,
            energy_imbalance: cur.f64()?,
        };
        out.summaries.push(summary);
        let column_len = cur.u64()? as usize;
        for _ in 0..column_len {
            let w = cur.f64()?;
            out.columns.push(w);
        }
        out.offsets.push(out.columns.len());
        match cur.u8()? {
            0 => out.series.push(None),
            1 => {
                let nodes = cur.u32()?;
                let minutes = cur.u32()?;
                let len = nodes as usize * minutes as usize;
                let mut samples = Vec::with_capacity(len);
                for _ in 0..len {
                    samples.push(cur.f64()?);
                }
                let series = JobSeries::new(JobId::from_index(id as usize), nodes, minutes, samples)
                    .ok_or_else(|| {
                        CheckpointError::Corrupt(format!(
                            "chunk {chunk}: job {id} series has inconsistent shape"
                        ))
                    })?;
                out.series.push(Some(series));
            }
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "chunk {chunk}: bad series flag {other}"
                )));
            }
        }
    }
    if cur.pos != bytes.len() {
        return Err(CheckpointError::Corrupt(format!(
            "chunk {chunk}: {} trailing bytes",
            bytes.len() - cur.pos
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::recover::RealFs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hpcpower-checkpoint-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::emmy(seed).scaled_down(24, 2 * 1440, 16);
        cfg.threads = 1;
        cfg
    }

    /// A chunk size giving at least `chunks` chunks for `n` jobs.
    fn chunk_for(n: usize, chunks: usize) -> usize {
        (n / chunks).max(1)
    }

    #[test]
    fn checkpointed_run_matches_monolithic_bytes() {
        let cfg = tiny_cfg(23);
        let monolithic = crate::cluster::simulate(cfg.clone());
        let dir = tmpdir("identity");
        let mut opts = CheckpointOptions::new(&dir);
        // Deliberately odd: not a divisor of the job count or the
        // monitor's internal batch size.
        opts.chunk_jobs = chunk_for(monolithic.len(), 4) | 1;
        let chunked = run_checkpointed(&cfg, &opts, &RealFs).unwrap().dataset;
        assert_eq!(
            serde_json::to_string(&chunked).unwrap(),
            serde_json::to_string(&monolithic).unwrap(),
            "chunked dataset must be byte-identical to the monolithic run"
        );
        assert!(dir.join(COMPLETE_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupt_then_resume_matches_monolithic_bytes() {
        let cfg = tiny_cfg(31);
        let monolithic = crate::cluster::simulate(tiny_cfg(31));
        let dir = tmpdir("resume");
        let mut opts = CheckpointOptions::new(&dir);
        opts.chunk_jobs = chunk_for(monolithic.len(), 5);
        opts.chaos.stop_after_chunk = Some(1);
        match run_checkpointed(&cfg, &opts, &RealFs) {
            Err(CheckpointError::Interrupted { committed, total }) => {
                assert_eq!(committed, 2);
                assert!(total > 2, "workload too small to interrupt ({total} chunks)");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        assert!(!dir.join(COMPLETE_FILE).exists());
        let resumed = resume(&dir, Some(2), &RealFs).unwrap().dataset;
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&monolithic).unwrap(),
            "resumed dataset must be byte-identical to the monolithic run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_different_workload() {
        let dir = tmpdir("mismatch");
        let mut opts = CheckpointOptions::new(&dir);
        opts.chunk_jobs = 50;
        opts.chaos.stop_after_chunk = Some(0);
        let _ = run_checkpointed(&tiny_cfg(1), &opts, &RealFs);
        opts.chaos = ChaosPlan::default();
        match run_checkpointed(&tiny_cfg(2), &opts, &RealFs) {
            Err(CheckpointError::Config(_)) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_outside_a_run_dir_is_a_config_error() {
        let dir = tmpdir("notarun");
        std::fs::create_dir_all(&dir).unwrap();
        match resume(&dir, None, &RealFs) {
            Err(CheckpointError::Config(_)) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_chunk_is_quarantined_and_redone_on_resume() {
        let cfg = tiny_cfg(47);
        let monolithic = crate::cluster::simulate(tiny_cfg(47));
        let dir = tmpdir("tamper");
        let mut opts = CheckpointOptions::new(&dir);
        opts.chunk_jobs = chunk_for(monolithic.len(), 6);
        opts.chaos.stop_after_chunk = Some(2);
        match run_checkpointed(&cfg, &opts, &RealFs) {
            Err(CheckpointError::Interrupted { .. }) => {}
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // Tear chunk 1 behind the journal's back (simulates a crash
        // window or bit rot between runs).
        let victim = chunk_path(&dir, 1);
        let full = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &full[..full.len() / 2]).unwrap();
        let resumed = resume(&dir, None, &RealFs).unwrap().dataset;
        // The torn file got a quarantine marker before being redone.
        assert!(
            dir.join(CHUNKS_DIR).join("chunk-000001.bin.torn").exists(),
            "torn chunk must leave a quarantine marker"
        );
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&monolithic).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_codec_round_trips_nan_exactly() {
        // A summary with NaN temporal_cv (1-minute job) must survive
        // the codec bit-for-bit — the reason the format is binary.
        let summary = JobPowerSummary {
            id: JobId::from_index(5),
            per_node_power_w: 101.25,
            energy_wmin: 6075.0,
            peak_overshoot: 0.0,
            frac_time_above_10pct: 0.0,
            temporal_cv: f64::NAN,
            avg_spatial_spread_w: 3.5,
            frac_time_spread_above_avg: 0.25,
            energy_imbalance: 0.125,
        };
        let mat = MaterializedJobs {
            summaries: vec![summary],
            series: vec![None],
            columns: vec![202.5, f64::NAN],
            offsets: vec![0, 2],
        };
        let job = crate::scheduler::ScheduledJob {
            request_idx: 5,
            request: crate::workload::JobRequest {
                user: 0,
                template: 0,
                app: 0,
                submit_min: 0,
                nodes: 2,
                walltime_req_min: 3,
                runtime_min: 2,
            },
            start_min: 0,
            end_min: 2,
            node_ids: vec![0, 1],
        };
        let bytes = encode_chunk(7, 5, std::slice::from_ref(&job), &mat);
        let decoded = decode_chunk(&bytes, 7, 5, 6).unwrap();
        assert_eq!(
            decoded.summaries[0].temporal_cv.to_bits(),
            f64::NAN.to_bits()
        );
        assert_eq!(decoded.columns[0].to_bits(), 202.5f64.to_bits());
        assert_eq!(decoded.columns[1].to_bits(), f64::NAN.to_bits());
        // Truncated payloads decode to Corrupt, never panic.
        for cut in [0, 9, bytes.len() - 1] {
            assert!(matches!(
                decode_chunk(&bytes[..cut], 7, 5, 6),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }
}
