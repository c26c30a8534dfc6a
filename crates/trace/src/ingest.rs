//! Chunked parallel zero-copy ingestion engine.
//!
//! The readers in [`crate::csv`] historically walked a `BufRead` line
//! by line, paying one heap `String` per line and one `Vec<&str>` per
//! row. This module replaces that hot path: the input
//! is read **once** into a single buffer, split at newline boundaries
//! into chunks, parsed chunk-concurrently on the ambient rayon pool
//! (`hpcpower_sim::with_threads` installs the pool; the engine inherits
//! it), and merged back **in deterministic chunk order** — so
//! strict-mode first-error position, lenient-mode quarantine rows, and
//! error-budget accounting are byte-for-byte identical to a serial
//! parse at any thread count.
//!
//! Inside a chunk, parsing is zero-copy and allocation-free per row:
//!
//! * lines are `&str` slices of the input buffer (no per-line `String`);
//! * clean rows take a **fused** fast path that splits and parses in a
//!   single byte scan (`parse_jobs_row_fused`), with integers decoded
//!   by digit accumulation and floats by the cursor-based
//!   [`crate::fastfloat`] Clinger fast path — bit-exact with
//!   `str::parse` by construction and by property test;
//! * anything unusual falls back to the field-splitting slow path
//!   ([`split_fields`] into fixed-arity arrays, no per-row `Vec`),
//!   whose accept/reject verdicts and diagnostics are the contract;
//! * each chunk accumulates **columns** (records, tokens, summaries,
//!   refusals), so the merge concatenates small plain arrays instead of
//!   shuffling ~200-byte row structs through the pipeline;
//! * symbolic user/app names are resolved through the
//!   [`crate::ids::Interner`] during the ordered merge, so id
//!   assignment is first-appearance order regardless of thread count.
//!
//! The legacy line-by-line parsers are retained under `#[cfg(test)]`
//! (see `csv::oracle`) as the parity oracle, exactly like the columnar
//! monitor kernel keeps its scalar reference path.
//!
//! ## Telemetry
//!
//! Each parse records `trace.ingest.*` metrics when the obs gate is on:
//! `bytes`, `chunks`, `rows` counters, `bytes_per_s` / `rows_per_s`
//! gauges, the `rows_quarantined` counter (from the shared
//! [`Quarantine`] driver), and the `intern_table_size` gauge when a
//! symbolic column was interned.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use rayon::prelude::*;

use crate::csv::{
    JobsTable, ParseMode, ParseOptions, Quarantine, SystemTable, JOBS_HEADER, SYSTEM_HEADER,
};
use crate::dataset::SystemSample;
use crate::fastfloat::parse_f64;
use crate::ids::{AppId, Interner, JobId, UserId};
use crate::job::{JobPowerSummary, JobRecord};
use crate::{Result, TraceError};

/// Smallest chunk worth spawning for; below this the split overhead
/// dominates and a single chunk (serial parse) wins.
const MIN_CHUNK_BYTES: usize = 64 * 1024;

/// Largest chunk: bounds per-chunk row-buffer growth and keeps the
/// merge's working set cache-friendly on huge traces.
const MAX_CHUNK_BYTES: usize = 4 * 1024 * 1024;

// ---------------------------------------------------------------------
// Fixed-arity field splitting (allocation-free)
// ---------------------------------------------------------------------

/// Splits `line` into exactly `N` comma-separated fields, in place,
/// with a single branchy byte scan (measurably faster than the
/// `str::split` searcher machinery on short telemetry fields).
///
/// Returns `Err(actual_count)` when the line does not have exactly `N`
/// fields — the same count `line.split(',').count()` would report, so
/// error messages match the legacy `Vec`-collecting path.
pub(crate) fn split_fields<const N: usize>(line: &str) -> std::result::Result<[&str; N], usize> {
    let mut out = [""; N];
    let mut start = 0usize;
    let mut k = 0usize;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == b',' {
            if k < N {
                // A comma is ASCII, so both split points are char
                // boundaries and the str slice cannot panic.
                out[k] = &line[start..i];
            }
            k += 1;
            start = i + 1;
        }
    }
    if k < N {
        out[k] = &line[start..];
    }
    k += 1;
    if k == N {
        Ok(out)
    } else {
        Err(k)
    }
}

// ---------------------------------------------------------------------
// Fast integer parsing (exact `str::parse` semantics)
// ---------------------------------------------------------------------
//
// Same contract as [`crate::fastfloat`]: accept/reject and the value
// are identical to `str::parse`, with anything outside the provably
// overflow-free digit-count window deferred to `str::parse` itself so
// equality is by construction. The windows are one digit short of the
// type's maximum (19 for `u64`, 9 for `u32`) because a full-width
// digit count can overflow; longer inputs are still valid when
// zero-padded, which is exactly what the fallback decides.

/// Parses like `str::parse::<u64>()`: optional `+`, then digits.
#[inline]
pub(crate) fn parse_u64_fast(s: &str) -> Option<u64> {
    let b = s.as_bytes();
    let d = match b.first() {
        Some(b'+') => &b[1..],
        _ => b,
    };
    if d.is_empty() || d.len() > 19 {
        return s.parse().ok();
    }
    let mut v: u64 = 0;
    for &c in d {
        let x = c.wrapping_sub(b'0');
        if x > 9 {
            return None;
        }
        v = v * 10 + u64::from(x);
    }
    Some(v)
}

/// Parses like `str::parse::<u32>()`: optional `+`, then digits.
#[inline]
pub(crate) fn parse_u32_fast(s: &str) -> Option<u32> {
    let b = s.as_bytes();
    let d = match b.first() {
        Some(b'+') => &b[1..],
        _ => b,
    };
    if d.is_empty() || d.len() > 9 {
        return s.parse().ok();
    }
    let mut v: u32 = 0;
    for &c in d {
        let x = c.wrapping_sub(b'0');
        if x > 9 {
            return None;
        }
        v = v * 10 + u32::from(x);
    }
    Some(v)
}

/// Duplicate-id set for the merge: a bitmap for the dense-id common
/// case (job ids are usually `0..n`) with a hash-set spill for sparse
/// ids. First-appearance semantics are identical to a plain `HashSet`;
/// only the cost per insert changes.
struct IdSet {
    bits: Vec<u64>,
    rest: HashSet<u32, BuildHasherDefault<FastIdHasher>>,
}

impl IdSet {
    fn with_capacity(n_rows: usize) -> Self {
        // 2·n_rows bits ≈ n_rows/4 bytes: tiny next to the row data,
        // and covers every dense-id trace without touching the spill.
        let words = (2 * n_rows).div_ceil(64).max(1);
        Self {
            bits: vec![0; words],
            rest: HashSet::default(),
        }
    }

    /// Returns `true` when `id` was not seen before (like
    /// `HashSet::insert`).
    fn insert(&mut self, id: u32) -> bool {
        let k = id as usize;
        if let Some(word) = self.bits.get_mut(k / 64) {
            let mask = 1u64 << (k % 64);
            let fresh = *word & mask == 0;
            *word |= mask;
            fresh
        } else {
            self.rest.insert(id)
        }
    }
}

/// Deterministic multiply-mix hasher for the duplicate-id spill set.
/// Job ids are attacker-free trace data, so SipHash's collision
/// resistance buys nothing on this path and costs several times more
/// per insert; the merge's first-appearance semantics do not depend on
/// the hasher.
#[derive(Default)]
struct FastIdHasher(u64);

impl std::hash::Hasher for FastIdHasher {
    fn finish(&self) -> u64 {
        // Fold the high bits down: HashMap indexes with the low bits,
        // where a bare multiply mixes least.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

// ---------------------------------------------------------------------
// Line iteration over a borrowed buffer
// ---------------------------------------------------------------------

/// Iterates `(lineno, line)` over a buffer slice with the exact
/// semantics of `BufRead::lines()`: split on `\n`, strip one trailing
/// `\r` per line, and do not yield a final empty segment after a
/// terminating newline.
struct Lines<'a> {
    rest: Option<&'a str>,
    lineno: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str, first_line: usize) -> Self {
        Self {
            rest: (!text.is_empty()).then_some(text),
            lineno: first_line,
        }
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let rest = self.rest?;
        let (mut line, remainder) = match rest.find('\n') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        self.rest = (!remainder.is_empty()).then_some(remainder);
        if let Some(stripped) = line.strip_suffix('\r') {
            line = stripped;
        }
        let lineno = self.lineno;
        self.lineno += 1;
        Some((lineno, line))
    }
}

// ---------------------------------------------------------------------
// Chunking
// ---------------------------------------------------------------------

/// One newline-aligned slice of the input plus the 1-based line number
/// of its first line and its exact line count (so per-chunk row buffers
/// allocate once, without re-scanning for newlines).
struct Chunk<'a> {
    text: &'a str,
    first_line: usize,
    n_lines: usize,
}

// Test-only chunk-size override so the parity matrix can force many
// tiny chunks (maximal boundary stress) on small fixtures.
#[cfg(test)]
thread_local! {
    static CHUNK_TARGET_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Splits `text` into newline-aligned chunks sized for the ambient
/// pool. Chunk boundaries land just after a `\n`, so every line lives
/// in exactly one chunk; starting line numbers come from a parallel
/// newline count over the chunk bodies.
fn split_chunks(text: &str, first_line: usize) -> Vec<Chunk<'_>> {
    let len = text.len();
    let threads = rayon::current_num_threads().max(1);
    #[allow(unused_mut)]
    let mut target = (len / (threads * 2).max(1)).clamp(MIN_CHUNK_BYTES, MAX_CHUNK_BYTES);
    #[cfg(test)]
    if let Some(t) = CHUNK_TARGET_OVERRIDE.with(std::cell::Cell::get) {
        target = t.max(1);
    }
    let mut bounds = Vec::new();
    let mut start = 0usize;
    while start < len {
        let tentative = start.saturating_add(target).min(len);
        let end = if tentative >= len {
            len
        } else {
            // Snap forward to just past the next newline; if there is
            // none, the rest is one final chunk.
            match text[tentative..].find('\n') {
                Some(i) => tentative + i + 1,
                None => len,
            }
        };
        bounds.push((start, end));
        start = end;
    }
    // Line offsets: newline counts per chunk body, prefix-summed. The
    // count is parallel (it is the only full extra pass over the
    // buffer); the prefix sum is a trivial serial fold over chunks.
    let counts: Vec<usize> = bounds
        .par_iter()
        .map(|&(s, e)| text[s..e].bytes().filter(|&b| b == b'\n').count())
        .collect();
    let mut line = first_line;
    bounds
        .into_iter()
        .zip(counts)
        .map(|((s, e), n)| {
            // An unterminated final line still occupies a line number.
            let tail = usize::from(!text[s..e].is_empty() && !text[s..e].ends_with('\n'));
            let chunk = Chunk {
                text: &text[s..e],
                first_line: line,
                n_lines: n + tail,
            };
            line += n + tail;
            chunk
        })
        .collect()
}

// ---------------------------------------------------------------------
// Generic chunk-parallel parsing
// ---------------------------------------------------------------------

/// One refused row, tagged with its provenance for the deterministic
/// merge: line number and the raw text (borrowed — a copy is made only
/// if the row is actually quarantined).
struct ErrRow<'a> {
    lineno: usize,
    raw: &'a str,
    err: TraceError,
}

/// Maps `f` over newline-aligned chunks of `text` on the ambient pool,
/// returning the per-chunk accumulators in input order plus the chunk
/// count. Each format supplies its own column-major accumulator; row
/// structs never travel between stages, which is what keeps the merge
/// at memcpy speed.
fn map_chunks<'a, A, F>(text: &'a str, first_line: usize, f: F) -> (Vec<A>, usize)
where
    A: Send,
    F: Fn(&Chunk<'a>) -> A + Sync,
{
    let chunks = split_chunks(text, first_line);
    let n_chunks = chunks.len();
    (chunks.into_par_iter().map(|c| f(&c)).collect(), n_chunks)
}

/// Records the engine's per-parse telemetry (no-ops when the obs gate
/// is off).
fn record_metrics(bytes: usize, rows: usize, chunks: usize, started: Instant) {
    hpcpower_obs::counter_add("trace.ingest.bytes", bytes as u64);
    hpcpower_obs::counter_add("trace.ingest.rows", rows as u64);
    hpcpower_obs::counter_add("trace.ingest.chunks", chunks as u64);
    let secs = started.elapsed().as_secs_f64();
    if secs > 0.0 {
        hpcpower_obs::gauge_set("trace.ingest.bytes_per_s", bytes as f64 / secs);
        hpcpower_obs::gauge_set("trace.ingest.rows_per_s", rows as f64 / secs);
    }
}

// ---------------------------------------------------------------------
// Jobs table
// ---------------------------------------------------------------------

/// A user/app cell before id resolution: the raw token (always a
/// borrowed slice) plus its numeric value when it parsed as one.
#[derive(Clone, Copy)]
struct IdTok<'a> {
    text: &'a str,
    num: Option<u32>,
}

impl<'a> IdTok<'a> {
    /// Accepts a dense numeric id or a symbolic name. Names must look
    /// like identifiers (`[A-Za-z_][A-Za-z0-9_.@-]*`) so that torn or
    /// binary garbage keeps failing the parse exactly as it did before
    /// names were supported.
    fn parse(field: &'a str) -> Option<IdTok<'a>> {
        if let Some(v) = parse_u32_fast(field) {
            return Some(IdTok {
                text: field,
                num: Some(v),
            });
        }
        let mut bytes = field.bytes();
        let first_ok = matches!(bytes.next(), Some(c) if c.is_ascii_alphabetic() || c == b'_');
        if first_ok
            && bytes.all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'@' | b'-'))
        {
            return Some(IdTok {
                text: field,
                num: None,
            });
        }
        None
    }
}

/// One jobs.csv row with user/app still in token form.
struct JobsRow<'a> {
    id: JobId,
    user: IdTok<'a>,
    app: IdTok<'a>,
    submit_min: u64,
    start_min: u64,
    end_min: u64,
    nodes: u32,
    walltime_req_min: u64,
    summary: JobPowerSummary,
}

/// Parses one jobs.csv data row without allocating. Errors carry the
/// 1-based field column, with the same messages as the legacy path.
fn parse_jobs_row_tok(lineno: usize, line: &str) -> Result<JobsRow<'_>> {
    let fields = split_fields::<16>(line).map_err(|got| {
        TraceError::parse_at(lineno, got.min(16), format!("expected 16 fields, got {got}"))
    })?;
    let perr = |k: usize, what: &str| TraceError::parse_at(lineno, k + 1, format!("bad {what}"));
    let u64_at = |k: usize, what: &str| parse_u64_fast(fields[k]).ok_or_else(|| perr(k, what));
    let u32_at = |k: usize, what: &str| parse_u32_fast(fields[k]).ok_or_else(|| perr(k, what));
    let f64_at = |k: usize, what: &str| parse_f64(fields[k]).ok_or_else(|| perr(k, what));
    let id = JobId(u32_at(0, "job_id")?);
    Ok(JobsRow {
        id,
        user: IdTok::parse(fields[1]).ok_or_else(|| perr(1, "user_id"))?,
        app: IdTok::parse(fields[2]).ok_or_else(|| perr(2, "app_id"))?,
        submit_min: u64_at(3, "submit_min")?,
        start_min: u64_at(4, "start_min")?,
        end_min: u64_at(5, "end_min")?,
        nodes: u32_at(6, "nodes")?,
        walltime_req_min: u64_at(7, "walltime_req_min")?,
        summary: JobPowerSummary {
            id,
            per_node_power_w: f64_at(8, "per_node_power_w")?,
            energy_wmin: f64_at(9, "energy_wmin")?,
            peak_overshoot: f64_at(10, "peak_overshoot")?,
            frac_time_above_10pct: f64_at(11, "frac_time_above_10pct")?,
            temporal_cv: f64_at(12, "temporal_cv")?,
            avg_spatial_spread_w: f64_at(13, "avg_spatial_spread_w")?,
            frac_time_spread_above_avg: f64_at(14, "frac_time_spread_above_avg")?,
            energy_imbalance: f64_at(15, "energy_imbalance")?,
        },
    })
}

// ---------------------------------------------------------------------
// Fused row parsing (the clean-row fast path)
// ---------------------------------------------------------------------
//
// One byte scan per row, splitting and parsing together: no per-field
// slicing, no second pass over the digits. Anything unusual — wrong
// arity, signs, words, out-of-window floats, stray bytes — returns
// `None` and the caller re-parses with the field-splitting path, whose
// diagnostics (and accept/reject verdicts) are the contract. A fused
// success is identical to the slow path's by construction: the same
// digits feed the same arithmetic.

/// Parses a digit run at `*i` into a `u64`, advancing past it. `None`
/// on an empty run or overflow (the slow path decides those).
#[inline]
fn fused_u64(b: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    let mut v: u64 = 0;
    while let Some(&c) = b.get(*i) {
        let x = c.wrapping_sub(b'0');
        if x > 9 {
            break;
        }
        v = v.wrapping_mul(10).wrapping_add(u64::from(x));
        *i += 1;
    }
    let n = *i - start;
    // 19 digits cannot wrap a u64; longer runs might have, so the slow
    // path owns the overflow verdict.
    (1..=19).contains(&n).then_some(v)
}

/// Parses a user/app cell at `*i`: a digit run (numeric id) or an
/// identifier (`[A-Za-z_][A-Za-z0-9_.@-]*`). The caller validates the
/// terminator, so a half-numeric cell like `9lives` simply fails the
/// following comma check and falls back.
#[inline]
fn fused_idtok<'a>(line: &'a str, i: &mut usize) -> Option<IdTok<'a>> {
    let b = line.as_bytes();
    let start = *i;
    let num = fused_u64(b, i);
    if let Some(v) = num {
        return Some(IdTok {
            text: &line[start..*i],
            num: Some(u32::try_from(v).ok()?),
        });
    }
    match b.get(*i) {
        Some(&c) if c.is_ascii_alphabetic() || c == b'_' => *i += 1,
        _ => return None,
    }
    while let Some(&c) = b.get(*i) {
        if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'@' | b'-') {
            *i += 1;
        } else {
            break;
        }
    }
    Some(IdTok {
        text: &line[start..*i],
        num: None,
    })
}

/// One-pass parse of a clean jobs row; `None` means "use the slow
/// path", not "bad row".
#[inline]
fn parse_jobs_row_fused(line: &str) -> Option<JobsRow<'_>> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let comma = |i: &mut usize| (b.get(*i) == Some(&b',')).then(|| *i += 1);
    let id = JobId(u32::try_from(fused_u64(b, &mut i)?).ok()?);
    comma(&mut i)?;
    let user = fused_idtok(line, &mut i)?;
    comma(&mut i)?;
    let app = fused_idtok(line, &mut i)?;
    comma(&mut i)?;
    let submit_min = fused_u64(b, &mut i)?;
    comma(&mut i)?;
    let start_min = fused_u64(b, &mut i)?;
    comma(&mut i)?;
    let end_min = fused_u64(b, &mut i)?;
    comma(&mut i)?;
    let nodes = u32::try_from(fused_u64(b, &mut i)?).ok()?;
    comma(&mut i)?;
    let walltime_req_min = fused_u64(b, &mut i)?;
    let mut fs = [0.0f64; 8];
    for slot in &mut fs {
        comma(&mut i)?;
        *slot = crate::fastfloat::parse_f64_prefix(b, &mut i)?;
    }
    (i == b.len()).then_some(())?;
    Some(JobsRow {
        id,
        user,
        app,
        submit_min,
        start_min,
        end_min,
        nodes,
        walltime_req_min,
        summary: JobPowerSummary {
            id,
            per_node_power_w: fs[0],
            energy_wmin: fs[1],
            peak_overshoot: fs[2],
            frac_time_above_10pct: fs[3],
            temporal_cv: fs[4],
            avg_spatial_spread_w: fs[5],
            frac_time_spread_above_avg: fs[6],
            energy_imbalance: fs[7],
        },
    })
}

/// One-pass parse of a clean system row; `None` means "use the slow
/// path".
#[inline]
fn parse_system_row_fused(line: &str) -> Option<SystemSample> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let comma = |i: &mut usize| (b.get(*i) == Some(&b',')).then(|| *i += 1);
    let minute = fused_u64(b, &mut i)?;
    comma(&mut i)?;
    let active_nodes = u32::try_from(fused_u64(b, &mut i)?).ok()?;
    comma(&mut i)?;
    let total_power_w = crate::fastfloat::parse_f64_prefix(b, &mut i)?;
    (i == b.len()).then_some(SystemSample {
        minute,
        active_nodes,
        total_power_w,
    })
}

/// The numeric accounting fields of one parsed jobs row (user/app stay
/// in token form until the merge resolves ids).
struct JobsRec {
    id: JobId,
    submit_min: u64,
    start_min: u64,
    end_min: u64,
    nodes: u32,
    walltime_req_min: u64,
}

/// Column-major per-chunk output of the jobs parser. Columns instead of
/// a `Vec` of ~200-byte row structs: the merge then touches small plain
/// arrays (ids, tokens, summaries) once each, rather than shuffling
/// whole rows through flatten/keep/resolve stages.
struct JobsChunk<'a> {
    recs: Vec<JobsRec>,
    users: Vec<IdTok<'a>>,
    apps: Vec<IdTok<'a>>,
    summaries: Vec<JobPowerSummary>,
    /// `(lineno, raw)` per ok row — the duplicate-id diagnostic needs
    /// both, and only for the (rare) rows that turn out duplicated.
    oks: Vec<(usize, &'a str)>,
    errs: Vec<ErrRow<'a>>,
    /// Whether every ok row's user/app cell was numeric — lets the
    /// merge skip the per-row token scan unless a chunk both contains a
    /// symbolic cell and loses rows to duplicate drops.
    users_numeric: bool,
    apps_numeric: bool,
}

/// Parses one chunk of jobs.csv into columns. In strict mode the chunk
/// stops at its first error — the merge cannot look past it anyway.
fn parse_jobs_chunk<'a>(chunk: &Chunk<'a>, mode: ParseMode) -> JobsChunk<'a> {
    let cap = chunk.n_lines;
    let mut acc = JobsChunk {
        recs: Vec::with_capacity(cap),
        users: Vec::with_capacity(cap),
        apps: Vec::with_capacity(cap),
        summaries: Vec::with_capacity(cap),
        oks: Vec::with_capacity(cap),
        errs: Vec::new(),
        users_numeric: true,
        apps_numeric: true,
    };
    for (lineno, line) in Lines::new(chunk.text, chunk.first_line) {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match parse_jobs_row_fused(line) {
            Some(row) => Ok(row),
            None => parse_jobs_row_tok(lineno, line),
        };
        match parsed {
            Ok(row) => {
                acc.users_numeric &= row.user.num.is_some();
                acc.apps_numeric &= row.app.num.is_some();
                acc.recs.push(JobsRec {
                    id: row.id,
                    submit_min: row.submit_min,
                    start_min: row.start_min,
                    end_min: row.end_min,
                    nodes: row.nodes,
                    walltime_req_min: row.walltime_req_min,
                });
                acc.users.push(row.user);
                acc.apps.push(row.app);
                acc.summaries.push(row.summary);
                acc.oks.push((lineno, line));
            }
            Err(err) => {
                acc.errs.push(ErrRow { lineno, raw: line, err });
                if mode == ParseMode::Strict {
                    break;
                }
            }
        }
    }
    acc
}

/// Parses a jobs table from a borrowed buffer — the chunk-parallel
/// engine behind [`crate::csv::read_jobs_with`].
///
/// Identical results to the serial oracle at any thread count: same
/// rows, same quarantine list (order, lines, columns, messages), same
/// first error in strict mode, same budget abort in lenient mode.
pub fn read_jobs_str(text: &str, opts: ParseOptions) -> Result<JobsTable> {
    hpcpower_obs::time("trace.ingest.jobs", || read_jobs_str_inner(text, opts))
}

fn read_jobs_str_inner(text: &str, opts: ParseOptions) -> Result<JobsTable> {
    let started = Instant::now();
    let (header, body, body_first_line) = split_header(text)?;
    if header.trim() != JOBS_HEADER {
        return Err(TraceError::parse(1, format!("unexpected header: {header}")));
    }

    let (mut chunks, n_chunks) =
        map_chunks(body, body_first_line, |c| parse_jobs_chunk(c, opts.mode));
    let n_rows: usize = chunks.iter().map(|c| c.recs.len() + c.errs.len()).sum();
    let total_ok: usize = chunks.iter().map(|c| c.recs.len()).sum();

    // Merge pass 1 — quarantine and duplicate accounting walk the rows
    // in input order (two-pointer interleave of each chunk's ok and err
    // streams by line number), so diagnostics replay exactly as a
    // serial parse. Output: per-chunk lists of dropped (duplicated)
    // rows, and whether each id column stayed all-numeric.
    let mut quarantine = Quarantine::new(opts);
    let mut seen = IdSet::with_capacity(total_ok);
    let mut drops: Vec<Vec<usize>> = Vec::with_capacity(chunks.len());
    let mut users_numeric = true;
    let mut apps_numeric = true;
    let mut kept_total = 0usize;
    for acc in &mut chunks {
        let mut dropped = Vec::new();
        let mut errs = std::mem::take(&mut acc.errs).into_iter().peekable();
        for (i, rec) in acc.recs.iter().enumerate() {
            let (lineno, raw) = acc.oks[i];
            while errs.peek().is_some_and(|e| e.lineno < lineno) {
                let e = errs.next().expect("peeked");
                quarantine.push(e.err, e.raw)?;
            }
            if !seen.insert(rec.id.0) {
                quarantine.push(
                    TraceError::parse_at(lineno, 1, format!("duplicate {}", rec.id)),
                    raw,
                )?;
                dropped.push(i);
            }
        }
        for e in errs {
            quarantine.push(e.err, e.raw)?;
        }
        kept_total += acc.recs.len() - dropped.len();
        // Column mode comes from the *kept* rows only (oracle
        // semantics: a symbolic cell that only ever appears on dropped
        // duplicates must not flip the column to interning). The
        // per-chunk flags answer it outright unless this chunk both
        // dropped rows and saw a symbolic cell — then rescan its kept
        // tokens.
        if dropped.is_empty() {
            users_numeric &= acc.users_numeric;
            apps_numeric &= acc.apps_numeric;
        } else if !(acc.users_numeric && acc.apps_numeric) {
            let mut next_drop = dropped.iter().copied().peekable();
            for i in 0..acc.recs.len() {
                if next_drop.peek() == Some(&i) {
                    next_drop.next();
                    continue;
                }
                users_numeric &= acc.users[i].num.is_some();
                apps_numeric &= acc.apps[i].num.is_some();
            }
        }
        drops.push(dropped);
    }

    // Merge pass 2 — id resolution and final assembly, one ordered walk
    // over the kept rows. All-numeric columns keep their literal dense
    // ids (legacy semantics, bit-identical to the serial oracle); a
    // column containing any symbolic name is interned wholesale in
    // first-appearance order (numeric tokens intern by their literal
    // text, so mixed files stay deterministic).
    let mut user_interner = (!users_numeric).then(Interner::new);
    let mut app_interner = (!apps_numeric).then(Interner::new);
    let mut out = JobsTable {
        jobs: Vec::with_capacity(kept_total),
        summaries: Vec::with_capacity(kept_total),
        quarantined: Vec::new(),
        user_names: Vec::new(),
        app_names: Vec::new(),
    };
    for (acc, dropped) in chunks.iter().zip(&drops) {
        let mut next_drop = dropped.iter().copied().peekable();
        for (i, rec) in acc.recs.iter().enumerate() {
            if next_drop.peek() == Some(&i) {
                next_drop.next();
                continue;
            }
            let user = match &mut user_interner {
                Some(interner) => interner.intern(acc.users[i].text),
                None => acc.users[i].num.unwrap_or(0),
            };
            let app = match &mut app_interner {
                Some(interner) => interner.intern(acc.apps[i].text),
                None => acc.apps[i].num.unwrap_or(0),
            };
            out.jobs.push(JobRecord {
                id: rec.id,
                user: UserId(user),
                app: AppId(app),
                submit_min: rec.submit_min,
                start_min: rec.start_min,
                end_min: rec.end_min,
                nodes: rec.nodes,
                walltime_req_min: rec.walltime_req_min,
            });
            out.summaries.push(acc.summaries[i]);
        }
    }
    if user_interner.is_some() || app_interner.is_some() {
        let entries = user_interner.as_ref().map_or(0, Interner::len)
            + app_interner.as_ref().map_or(0, Interner::len);
        hpcpower_obs::gauge_set("trace.ingest.intern_table_size", entries as f64);
    }
    out.user_names = user_interner.map(Interner::into_names).unwrap_or_default();
    out.app_names = app_interner.map(Interner::into_names).unwrap_or_default();
    out.quarantined = quarantine.into_rows();
    record_metrics(text.len(), n_rows, n_chunks, started);
    Ok(out)
}

/// Splits off the first line as the header; errors exactly like the
/// legacy readers on an empty input.
fn split_header(text: &str) -> Result<(&str, &str, usize)> {
    if text.is_empty() {
        return Err(TraceError::parse(1, "empty file"));
    }
    match text.find('\n') {
        Some(i) => {
            let header = text[..i].strip_suffix('\r').unwrap_or(&text[..i]);
            Ok((header, &text[i + 1..], 2))
        }
        None => Ok((text, "", 2)),
    }
}

// ---------------------------------------------------------------------
// System table
// ---------------------------------------------------------------------

/// Parses one system.csv data row without allocating.
fn parse_system_row_fast(lineno: usize, line: &str) -> Result<SystemSample> {
    let fields = split_fields::<3>(line).map_err(|got| {
        TraceError::parse_at(lineno, got.min(3), format!("expected 3 fields, got {got}"))
    })?;
    Ok(SystemSample {
        minute: parse_u64_fast(fields[0])
            .ok_or_else(|| TraceError::parse_at(lineno, 1, "bad minute"))?,
        active_nodes: parse_u32_fast(fields[1])
            .ok_or_else(|| TraceError::parse_at(lineno, 2, "bad active_nodes"))?,
        total_power_w: parse_f64(fields[2])
            .ok_or_else(|| TraceError::parse_at(lineno, 3, "bad total_power_w"))?,
    })
}

/// Per-chunk output of the system parser: good samples plus refused
/// rows. Samples never quarantine, so the merge is a straight column
/// concatenation (a move when the input was a single chunk).
struct SysChunk<'a> {
    samples: Vec<SystemSample>,
    errs: Vec<ErrRow<'a>>,
}

fn parse_system_chunk<'a>(chunk: &Chunk<'a>, mode: ParseMode) -> SysChunk<'a> {
    let mut acc = SysChunk {
        samples: Vec::with_capacity(chunk.n_lines),
        errs: Vec::new(),
    };
    for (lineno, line) in Lines::new(chunk.text, chunk.first_line) {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match parse_system_row_fused(line) {
            Some(sample) => Ok(sample),
            None => parse_system_row_fast(lineno, line),
        };
        match parsed {
            Ok(sample) => acc.samples.push(sample),
            Err(err) => {
                acc.errs.push(ErrRow { lineno, raw: line, err });
                if mode == ParseMode::Strict {
                    break;
                }
            }
        }
    }
    acc
}

/// Parses a system table from a borrowed buffer — the chunk-parallel
/// engine behind [`crate::csv::read_system_with`].
pub fn read_system_str(text: &str, opts: ParseOptions) -> Result<SystemTable> {
    hpcpower_obs::time("trace.ingest.system", || read_system_str_inner(text, opts))
}

fn read_system_str_inner(text: &str, opts: ParseOptions) -> Result<SystemTable> {
    let started = Instant::now();
    let (header, body, body_first_line) = split_header(text)?;
    if header.trim() != SYSTEM_HEADER {
        return Err(TraceError::parse(1, "unexpected header"));
    }
    let (mut chunks, n_chunks) =
        map_chunks(body, body_first_line, |c| parse_system_chunk(c, opts.mode));
    let n_rows: usize = chunks.iter().map(|c| c.samples.len() + c.errs.len()).sum();
    let total: usize = chunks.iter().map(|c| c.samples.len()).sum();
    // Only refused rows touch the quarantine, so replaying them in
    // chunk order is already input order.
    let mut quarantine = Quarantine::new(opts);
    for acc in &mut chunks {
        for e in std::mem::take(&mut acc.errs) {
            quarantine.push(e.err, e.raw)?;
        }
    }
    let samples = if chunks.len() == 1 {
        std::mem::take(&mut chunks[0].samples)
    } else {
        let mut samples = Vec::with_capacity(total);
        for acc in &chunks {
            samples.extend_from_slice(&acc.samples);
        }
        samples
    };
    let out = SystemTable {
        samples,
        quarantined: quarantine.into_rows(),
    };
    record_metrics(text.len(), n_rows, n_chunks, started);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_fields_exact_and_counts() {
        assert_eq!(split_fields::<3>("a,b,c"), Ok(["a", "b", "c"]));
        assert_eq!(split_fields::<3>("a,b"), Err(2));
        assert_eq!(split_fields::<3>("a,b,c,d,e"), Err(5));
        assert_eq!(split_fields::<1>(""), Ok([""]));
        assert_eq!(split_fields::<2>(",,"), Err(3));
        // Empty fields are fields, matching split(',').
        assert_eq!(split_fields::<3>(",b,"), Ok(["", "b", ""]));
    }

    #[test]
    fn lines_match_bufread_semantics() {
        let collect = |t: &'static str| Lines::new(t, 1).collect::<Vec<_>>();
        assert_eq!(collect("a\nb\n"), vec![(1, "a"), (2, "b")]);
        assert_eq!(collect("a\nb"), vec![(1, "a"), (2, "b")]);
        assert_eq!(collect("a\r\nb\r\n"), vec![(1, "a"), (2, "b")]);
        assert_eq!(collect("a\n\n\n"), vec![(1, "a"), (2, ""), (3, "")]);
        assert_eq!(collect(""), vec![]);
        assert_eq!(collect("\n"), vec![(1, "")]);
    }

    #[test]
    fn chunks_cover_input_with_correct_line_offsets() {
        // Force multiple chunks despite MIN_CHUNK_BYTES by building a
        // buffer bigger than one chunk.
        let line = "x".repeat(100);
        let text: String = (0..2000).map(|_| format!("{line}\n")).collect();
        let chunks = split_chunks(&text, 2);
        assert!(text.len() > MIN_CHUNK_BYTES, "fixture too small");
        let mut rebuilt = String::new();
        let mut expect_line = 2usize;
        for c in &chunks {
            assert_eq!(c.first_line, expect_line);
            expect_line += c.text.bytes().filter(|&b| b == b'\n').count();
            rebuilt.push_str(c.text);
        }
        assert_eq!(rebuilt, text, "chunks partition the buffer");
        assert_eq!(expect_line, 2 + 2000);
    }

    #[test]
    fn id_tokens_accept_numbers_and_identifiers_only() {
        assert_eq!(IdTok::parse("42").unwrap().num, Some(42));
        assert_eq!(IdTok::parse("alice").unwrap().num, None);
        assert_eq!(IdTok::parse("app-v1.2@x").unwrap().num, None);
        assert_eq!(IdTok::parse("_hidden").unwrap().num, None);
        assert!(IdTok::parse("").is_none());
        assert!(IdTok::parse("-3").is_none());
        assert!(IdTok::parse("9lives").is_none(), "digit-led junk stays an error");
        assert!(IdTok::parse("a b").is_none());
        assert!(IdTok::parse("\u{0}\u{0}garbage").is_none());
    }

    #[test]
    fn symbolic_columns_intern_in_file_order() {
        let mut text = String::from(JOBS_HEADER);
        text.push('\n');
        for (i, (user, app)) in [
            ("carol", "gromacs"),
            ("alice", "wrf"),
            ("carol", "gromacs"),
            ("bob", "gromacs"),
        ]
        .iter()
        .enumerate()
        {
            text.push_str(&format!(
                "{i},{user},{app},0,10,60,2,120,100,100,0,0,0,0,0,0\n"
            ));
        }
        let table = read_jobs_str(&text, ParseOptions::strict()).unwrap();
        assert_eq!(table.user_names, vec!["carol", "alice", "bob"]);
        assert_eq!(table.app_names, vec!["gromacs", "wrf"]);
        let users: Vec<u32> = table.jobs.iter().map(|j| j.user.0).collect();
        assert_eq!(users, vec![0, 1, 0, 2]);
        let apps: Vec<u32> = table.jobs.iter().map(|j| j.app.0).collect();
        assert_eq!(apps, vec![0, 1, 0, 0]);
    }

    #[test]
    fn symbolic_cell_on_a_dropped_duplicate_does_not_flip_the_column_mode() {
        // The only symbolic user name sits on a duplicate-id row, which
        // the merge drops; the kept rows are all numeric, so the column
        // must keep literal ids (oracle semantics: mode is decided over
        // kept rows only).
        let mut text = String::from(JOBS_HEADER);
        text.push('\n');
        text.push_str("0,7,3,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        text.push_str("0,mallory,3,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        text.push_str("1,8,3,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        let table = read_jobs_str(&text, ParseOptions::lenient(10)).unwrap();
        assert_eq!(table.quarantined.len(), 1, "duplicate row quarantined");
        assert!(table.user_names.is_empty(), "column stays numeric");
        let users: Vec<u32> = table.jobs.iter().map(|j| j.user.0).collect();
        assert_eq!(users, vec![7, 8]);
    }

    #[test]
    fn numeric_columns_keep_literal_ids_and_no_name_table() {
        let mut text = String::from(JOBS_HEADER);
        text.push('\n');
        text.push_str("0,7,3,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        let table = read_jobs_str(&text, ParseOptions::strict()).unwrap();
        assert_eq!(table.jobs[0].user, UserId(7));
        assert_eq!(table.jobs[0].app, AppId(3));
        assert!(table.user_names.is_empty());
        assert!(table.app_names.is_empty());
    }

    /// Runs `op` on an installed pool of `threads`, with the chunk
    /// target forced to `chunk_target` when given.
    pub(super) fn with_pool<R>(
        threads: usize,
        chunk_target: Option<usize>,
        op: impl FnOnce() -> R,
    ) -> R {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool");
        pool.install(|| {
            CHUNK_TARGET_OVERRIDE.with(|c| c.set(chunk_target));
            let out = op();
            CHUNK_TARGET_OVERRIDE.with(|c| c.set(None));
            out
        })
    }

    #[test]
    fn mixed_column_interns_numeric_tokens_by_text() {
        let mut text = String::from(JOBS_HEADER);
        text.push('\n');
        text.push_str("0,7,0,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        text.push_str("1,alice,0,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        text.push_str("2,7,0,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        let table = read_jobs_str(&text, ParseOptions::strict()).unwrap();
        assert_eq!(table.user_names, vec!["7", "alice"]);
        let users: Vec<u32> = table.jobs.iter().map(|j| j.user.0).collect();
        assert_eq!(users, vec![0, 1, 0]);
        assert!(table.app_names.is_empty(), "app column stayed numeric");
    }
}

/// The full parity matrix: the parallel engine versus the retained
/// serial oracle (`csv::oracle`) over
/// seeds × threads {1,2,4} × {strict, lenient} × {clean, torn} ×
/// chunk layouts (ambient, 64-byte, 7-byte). Every comparison is on
/// the Debug rendering of the full table — jobs, summaries
/// (shortest-round-trip floats, i.e. bit-faithful), quarantine rows —
/// or, on failure, on the structural Debug of the error (variant,
/// line, column, message, budget accounting).
#[cfg(test)]
mod parity {
    use super::tests::with_pool;
    use super::*;
    use crate::csv::oracle as csv_oracle;
    use std::io::BufReader;

    /// Deterministic splitmix-style generator; no external rand crate.
    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = *state;
        z ^= z >> 33;
        z = z.wrapping_mul(0xff51afd7ed558ccd);
        z ^ (z >> 29)
    }

    fn jobs_fixture(seed: u64, rows: usize, torn: bool) -> String {
        let mut s = seed;
        let mut text = String::from(JOBS_HEADER);
        text.push('\n');
        for i in 0..rows {
            // Occasional duplicate ids exercise the merge-side check.
            let id = if torn && i > 0 && next(&mut s).is_multiple_of(17) {
                i - 1
            } else {
                i
            };
            let f = |s: &mut u64| (next(s) % 1_000_000) as f64 / 64.0;
            let mut line = format!(
                "{id},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                next(&mut s) % 50,
                next(&mut s) % 12,
                next(&mut s) % 10_000,
                next(&mut s) % 10_000,
                next(&mut s) % 10_000,
                1 + next(&mut s) % 64,
                next(&mut s) % 5_000,
                f(&mut s),
                f(&mut s),
                f(&mut s),
                f(&mut s),
                f(&mut s),
                f(&mut s),
                f(&mut s),
                f(&mut s),
            );
            if torn {
                // Deterministically splice in the classic corruption
                // modes: short rows, non-numeric cells, raw garbage.
                match next(&mut s) % 11 {
                    0 => line = line.split_at(line.len() / 2).0.to_string(),
                    1 => line = line.replacen(',', ",??,", 1),
                    2 => line = "@@garbage@@".to_string(),
                    3 => line.push_str(",999"),
                    _ => {}
                }
            }
            text.push_str(&line);
            text.push('\n');
        }
        if torn {
            // Tear the tail mid-line: a crash-truncated file.
            let cut = text.len() - 9;
            text.truncate(cut);
        }
        text
    }

    fn system_fixture(seed: u64, rows: usize, torn: bool) -> String {
        let mut s = seed;
        let mut text = String::from(SYSTEM_HEADER);
        text.push('\n');
        for i in 0..rows {
            let mut line = format!(
                "{i},{},{}",
                next(&mut s) % 500,
                (next(&mut s) % 10_000_000) as f64 / 16.0
            );
            if torn {
                match next(&mut s) % 13 {
                    0 => line = "only-one-field".to_string(),
                    1 => line = format!("{i},nope,1.0"),
                    _ => {}
                }
            }
            text.push_str(&line);
            text.push('\n');
        }
        if torn {
            let cut = text.len() - 4;
            text.truncate(cut);
        }
        text
    }

    /// Structural comparison via Debug: identical tables (down to float
    /// bits, via shortest-round-trip rendering) or identical errors
    /// (variant + line + column + message + budget fields).
    fn render<T: std::fmt::Debug>(r: &Result<T>) -> String {
        match r {
            Ok(v) => format!("Ok({v:?})"),
            Err(e) => format!("Err({e:?})"),
        }
    }

    const THREADS: [usize; 3] = [1, 2, 4];
    const CHUNKS: [Option<usize>; 3] = [None, Some(64), Some(7)];

    fn modes() -> [ParseOptions; 3] {
        [
            ParseOptions::strict(),
            ParseOptions::lenient(4),
            ParseOptions::lenient(100_000),
        ]
    }

    #[test]
    fn jobs_parallel_matches_serial_oracle() {
        for seed in [11u64, 29, 73] {
            for torn in [false, true] {
                let text = jobs_fixture(seed, 120, torn);
                for opts in modes() {
                    let want = render(&csv_oracle::read_jobs_with(
                        BufReader::new(text.as_bytes()),
                        opts,
                    ));
                    for threads in THREADS {
                        for chunk in CHUNKS {
                            let got = with_pool(threads, chunk, || {
                                render(&read_jobs_str(&text, opts))
                            });
                            assert_eq!(
                                got, want,
                                "jobs seed={seed} torn={torn} opts={opts:?} \
                                 threads={threads} chunk={chunk:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn system_parallel_matches_serial_oracle() {
        for seed in [5u64, 41] {
            for torn in [false, true] {
                let text = system_fixture(seed, 150, torn);
                for opts in modes() {
                    let want = render(&csv_oracle::read_system_with(
                        BufReader::new(text.as_bytes()),
                        opts,
                    ));
                    for threads in THREADS {
                        for chunk in CHUNKS {
                            let got = with_pool(threads, chunk, || {
                                render(&read_system_str(&text, opts))
                            });
                            assert_eq!(
                                got, want,
                                "system seed={seed} torn={torn} opts={opts:?} \
                                 threads={threads} chunk={chunk:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_header_only_inputs_match_oracle() {
        for text in ["", "\n", JOBS_HEADER, &format!("{JOBS_HEADER}\n")] {
            let want = render(&csv_oracle::read_jobs_with(
                BufReader::new(text.as_bytes()),
                ParseOptions::strict(),
            ));
            let got = render(&read_jobs_str(text, ParseOptions::strict()));
            assert_eq!(got, want, "input {text:?}");
        }
    }

    /// Where does the time go? Stage-by-stage wall clock over the same
    /// fixture as `ingest_speedup_vs_oracle`, for diagnosing hot-path
    /// regressions. Run with:
    /// `cargo test --release -p hpcpower-trace --lib -- --ignored ingest_phase --nocapture`
    #[test]
    #[ignore = "manual perf diagnosis; run in release mode"]
    fn ingest_phase_bisect() {
        use std::time::Instant;
        let text = jobs_fixture(1, 400_000, false);
        let mb = text.len() as f64 / 1e6;
        let time = |label: &str, f: &mut dyn FnMut() -> usize| {
            let t0 = Instant::now();
            let sink = f();
            let s = t0.elapsed().as_secs_f64();
            eprintln!("{label:<28} {s:.3}s ({:.0} MB/s) sink={sink}", mb / s);
        };
        time("newline count", &mut || {
            text.bytes().filter(|&b| b == b'\n').count()
        });
        time("Lines only", &mut || {
            Lines::new(&text, 1).map(|(_, l)| l.len()).sum()
        });
        time("Lines + split16", &mut || {
            Lines::new(&text, 1)
                .filter_map(|(_, l)| split_fields::<16>(l).ok())
                .map(|f| f[0].len())
                .sum()
        });
        time("Lines + full row parse", &mut || {
            Lines::new(&text, 1)
                .skip(1)
                .filter_map(|(ln, l)| parse_jobs_row_tok(ln, l).ok())
                .map(|r| r.nodes as usize)
                .sum()
        });
        time("row parse + push", &mut || {
            let mut rows: Vec<JobsRow<'_>> = Vec::new();
            for (ln, l) in Lines::new(&text, 1).skip(1) {
                if let Ok(r) = parse_jobs_row_tok(ln, l) {
                    rows.push(r);
                }
            }
            rows.len()
        });
        time("chunk parse machinery", &mut || {
            with_pool(1, None, || {
                map_chunks(&text, 2, |c| parse_jobs_chunk(c, ParseMode::Strict))
                    .0
                    .iter()
                    .map(|c| c.recs.len())
                    .sum()
            })
        });
        time("full read_jobs_str", &mut || {
            with_pool(1, None, || {
                read_jobs_str(&text, ParseOptions::strict()).unwrap().jobs.len()
            })
        });
    }

    /// Manual throughput comparison against the serial oracle — the
    /// acceptance number behind the README walkthrough. Run with:
    /// `cargo test --release -p hpcpower-trace --lib -- --ignored ingest_speedup`
    #[test]
    #[ignore = "manual perf measurement; run in release mode"]
    fn ingest_speedup_vs_oracle() {
        use std::time::Instant;
        let text = jobs_fixture(1, 400_000, false);
        let mb = text.len() as f64 / 1e6;
        let t0 = Instant::now();
        let oracle = csv_oracle::read_jobs_with(
            BufReader::new(text.as_bytes()),
            ParseOptions::strict(),
        )
        .unwrap();
        let oracle_s = t0.elapsed().as_secs_f64();
        for threads in [1usize, 2, 4, 8] {
            let t1 = Instant::now();
            let engine = with_pool(threads, None, || {
                read_jobs_str(&text, ParseOptions::strict()).unwrap()
            });
            let engine_s = t1.elapsed().as_secs_f64();
            assert_eq!(engine.jobs, oracle.jobs);
            eprintln!(
                "ingest {mb:.1} MB: oracle {oracle_s:.3}s ({:.0} MB/s) vs engine@{threads} \
                 {engine_s:.3}s ({:.0} MB/s) — {:.2}x",
                mb / oracle_s,
                mb / engine_s,
                oracle_s / engine_s
            );
        }
    }

    #[test]
    fn crlf_input_matches_oracle() {
        let text = jobs_fixture(3, 40, false).replace('\n', "\r\n");
        let want = render(&csv_oracle::read_jobs_with(
            BufReader::new(text.as_bytes()),
            ParseOptions::strict(),
        ));
        let got = with_pool(2, Some(32), || {
            render(&read_jobs_str(&text, ParseOptions::strict()))
        });
        assert_eq!(got, want);
    }
}
