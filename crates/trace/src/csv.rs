//! CSV import/export in a Zenodo-like layout.
//!
//! The paper's released dataset is a set of flat tables; we mirror that:
//!
//! * `jobs.csv` — one row per job: accounting record + power summary.
//! * `system.csv` — one row per minute: active nodes and total power.
//!
//! Writers/readers are hand-rolled (the schema is fixed and mostly
//! numeric, so a CSV dependency would be overkill). Since PR 10 the
//! readers buffer the input once and hand it to the chunk-parallel
//! zero-copy engine in [`crate::ingest`]; the legacy line-by-line
//! implementation survives under `#[cfg(test)]` (see [`self`] tests'
//! `oracle` module) as the parity oracle the engine is proven
//! byte-identical against.
//!
//! ## Strict vs. lenient ingestion
//!
//! Production telemetry is messy: truncated rows, non-numeric cells,
//! duplicated job ids. Every reader therefore exists in two modes
//! ([`ParseMode`]):
//!
//! * **Strict** (the default, and the historical behaviour): fail fast
//!   on the first malformed row with a precise line/column diagnostic.
//! * **Lenient**: recover and continue. Malformed rows are quarantined
//!   (with their line number, offending column, and raw text) instead of
//!   aborting the parse, up to a configurable *error budget*; exceeding
//!   the budget aborts with [`TraceError::ErrorBudgetExceeded`].

use std::io::{BufRead, Write};

use crate::dataset::SystemSample;
use crate::job::{JobPowerSummary, JobRecord};
use crate::{Result, TraceError};

/// How a reader reacts to malformed rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Fail fast on the first malformed row (historical behaviour).
    #[default]
    Strict,
    /// Quarantine malformed rows and continue, within the error budget.
    Lenient,
}

/// Options shared by all CSV readers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParseOptions {
    /// Strict or lenient error handling.
    pub mode: ParseMode,
    /// Maximum number of quarantined rows tolerated in lenient mode
    /// before the parse aborts with
    /// [`TraceError::ErrorBudgetExceeded`]. Ignored in strict mode.
    pub error_budget: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        Self {
            mode: ParseMode::Strict,
            error_budget: 1_000,
        }
    }
}

impl ParseOptions {
    /// Strict options (fail fast).
    pub fn strict() -> Self {
        Self {
            mode: ParseMode::Strict,
            ..Self::default()
        }
    }

    /// Lenient options with the given error budget.
    pub fn lenient(error_budget: usize) -> Self {
        Self {
            mode: ParseMode::Lenient,
            error_budget,
        }
    }
}

/// One row a lenient parse refused, kept for the data-quality report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based line number within the file.
    pub line: usize,
    /// 1-based field index of the offending cell, when known.
    pub column: Option<usize>,
    /// What was wrong.
    pub message: String,
    /// The raw row text (truncated to 200 bytes).
    pub raw: String,
}

impl QuarantinedRow {
    fn new(line: usize, column: Option<usize>, message: String, raw: &str) -> Self {
        let mut raw = raw.to_string();
        if raw.len() > 200 {
            raw.truncate(200);
        }
        Self {
            line,
            column,
            message,
            raw,
        }
    }
}

/// Outcome of a lenient jobs-table parse: the good rows plus the
/// quarantine list.
#[derive(Debug, Clone, Default)]
pub struct JobsTable {
    /// Successfully parsed accounting records.
    pub jobs: Vec<JobRecord>,
    /// Power summaries aligned with `jobs`.
    pub summaries: Vec<JobPowerSummary>,
    /// Rows refused by the parser.
    pub quarantined: Vec<QuarantinedRow>,
    /// Interned user names in dense-id order when the `user_id` column
    /// held symbolic names; empty for all-numeric files (the historical
    /// format), where ids are the literal cell values.
    pub user_names: Vec<String>,
    /// Interned application names in dense-id order; empty for
    /// all-numeric files.
    pub app_names: Vec<String>,
}

/// Outcome of a lenient system-table parse.
#[derive(Debug, Clone, Default)]
pub struct SystemTable {
    /// Successfully parsed samples (file order, not yet sorted).
    pub samples: Vec<SystemSample>,
    /// Rows refused by the parser.
    pub quarantined: Vec<QuarantinedRow>,
}

/// Tracks quarantined rows against the error budget; the common driver
/// behind every lenient reader in this crate.
pub(crate) struct Quarantine {
    opts: ParseOptions,
    rows: Vec<QuarantinedRow>,
}

impl Quarantine {
    pub(crate) fn new(opts: ParseOptions) -> Self {
        Self {
            opts,
            rows: Vec::new(),
        }
    }

    /// Records one bad row. In strict mode this returns the error
    /// unchanged; in lenient mode it quarantines and returns `Ok` unless
    /// the budget is exhausted.
    pub(crate) fn push(&mut self, err: TraceError, raw: &str) -> Result<()> {
        let (line, column, message) = match err {
            TraceError::Parse {
                line,
                column,
                message,
            } => (line, column, message),
            other => return Err(other),
        };
        if self.opts.mode == ParseMode::Strict {
            return Err(TraceError::Parse {
                line,
                column,
                message,
            });
        }
        self.rows.push(QuarantinedRow::new(line, column, message, raw));
        if self.rows.len() > self.opts.error_budget {
            return Err(TraceError::ErrorBudgetExceeded {
                quarantined: self.rows.len(),
                budget: self.opts.error_budget,
                first_line: self.rows.first().map(|r| r.line).unwrap_or(0),
            });
        }
        Ok(())
    }

    pub(crate) fn into_rows(self) -> Vec<QuarantinedRow> {
        if !self.rows.is_empty() {
            hpcpower_obs::counter_add("trace.ingest.rows_quarantined", self.rows.len() as u64);
        }
        self.rows
    }
}

/// Header of `jobs.csv`.
pub const JOBS_HEADER: &str = "job_id,user_id,app_id,submit_min,start_min,end_min,nodes,walltime_req_min,per_node_power_w,energy_wmin,peak_overshoot,frac_time_above_10pct,temporal_cv,avg_spatial_spread_w,frac_time_spread_above_avg,energy_imbalance";

/// Header of `system.csv`.
pub const SYSTEM_HEADER: &str = "minute,active_nodes,total_power_w";

/// Writes the joined jobs table (accounting + power summary).
pub fn write_jobs<W: Write>(
    w: &mut W,
    jobs: &[JobRecord],
    summaries: &[JobPowerSummary],
) -> Result<()> {
    if jobs.len() != summaries.len() {
        return Err(TraceError::Invalid(format!(
            "jobs ({}) and summaries ({}) must align",
            jobs.len(),
            summaries.len()
        )));
    }
    writeln!(w, "{JOBS_HEADER}")?;
    for (j, s) in jobs.iter().zip(summaries) {
        if j.id != s.id {
            return Err(TraceError::Invalid(format!(
                "record {} paired with summary {}",
                j.id, s.id
            )));
        }
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            j.id.0,
            j.user.0,
            j.app.0,
            j.submit_min,
            j.start_min,
            j.end_min,
            j.nodes,
            j.walltime_req_min,
            s.per_node_power_w,
            s.energy_wmin,
            s.peak_overshoot,
            s.frac_time_above_10pct,
            s.temporal_cv,
            s.avg_spatial_spread_w,
            s.frac_time_spread_above_avg,
            s.energy_imbalance,
        )?;
    }
    Ok(())
}

/// Reads a jobs table under the given [`ParseOptions`].
///
/// In lenient mode, malformed rows and rows re-using an already-seen
/// job id are quarantined instead of aborting the parse.
///
/// The input is buffered once and parsed by the chunk-parallel engine
/// ([`crate::ingest::read_jobs_str`]); results are identical to the
/// historical serial parse at any thread count.
pub fn read_jobs_with<R: BufRead>(mut r: R, opts: ParseOptions) -> Result<JobsTable> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    crate::ingest::read_jobs_str(&text, opts)
}

/// Reads a jobs table written by [`write_jobs`] (strict mode).
pub fn read_jobs<R: BufRead>(r: R) -> Result<(Vec<JobRecord>, Vec<JobPowerSummary>)> {
    let table = read_jobs_with(r, ParseOptions::strict())?;
    Ok((table.jobs, table.summaries))
}

/// Writes the per-minute system table.
pub fn write_system<W: Write>(w: &mut W, series: &[SystemSample]) -> Result<()> {
    writeln!(w, "{SYSTEM_HEADER}")?;
    for s in series {
        writeln!(w, "{},{},{}", s.minute, s.active_nodes, s.total_power_w)?;
    }
    Ok(())
}

/// Reads a system table under the given [`ParseOptions`].
///
/// Buffered once, then parsed by the chunk-parallel engine
/// ([`crate::ingest::read_system_str`]).
pub fn read_system_with<R: BufRead>(mut r: R, opts: ParseOptions) -> Result<SystemTable> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    crate::ingest::read_system_str(&text, opts)
}

/// Reads a system table written by [`write_system`] (strict mode).
pub fn read_system<R: BufRead>(r: R) -> Result<Vec<SystemSample>> {
    read_system_with(r, ParseOptions::strict()).map(|t| t.samples)
}

/// The pre-engine serial readers, retained **verbatim** as the parity
/// oracle for the chunk-parallel engine (the same discipline as PR 5's
/// scalar simulate kernel). Production code must never call these; the
/// engine's tests prove it produces byte-identical tables, quarantine
/// lists, and first errors.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::ids::{AppId, JobId, UserId};

    /// Parses one data row of `jobs.csv`. Errors carry the 1-based
    /// field column of the offending cell.
    fn parse_jobs_row(lineno: usize, line: &str) -> Result<(JobRecord, JobPowerSummary)> {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 16 {
            return Err(TraceError::parse_at(
                lineno,
                fields.len().min(16),
                format!("expected 16 fields, got {}", fields.len()),
            ));
        }
        let perr =
            |k: usize, what: &str| TraceError::parse_at(lineno, k + 1, format!("bad {what}"));
        let u64_at = |k: usize, what: &str| fields[k].parse::<u64>().map_err(|_| perr(k, what));
        let u32_at = |k: usize, what: &str| fields[k].parse::<u32>().map_err(|_| perr(k, what));
        let f64_at = |k: usize, what: &str| fields[k].parse::<f64>().map_err(|_| perr(k, what));
        let id = JobId(u32_at(0, "job_id")?);
        let record = JobRecord {
            id,
            user: UserId(u32_at(1, "user_id")?),
            app: AppId(u32_at(2, "app_id")?),
            submit_min: u64_at(3, "submit_min")?,
            start_min: u64_at(4, "start_min")?,
            end_min: u64_at(5, "end_min")?,
            nodes: u32_at(6, "nodes")?,
            walltime_req_min: u64_at(7, "walltime_req_min")?,
        };
        let summary = JobPowerSummary {
            id,
            per_node_power_w: f64_at(8, "per_node_power_w")?,
            energy_wmin: f64_at(9, "energy_wmin")?,
            peak_overshoot: f64_at(10, "peak_overshoot")?,
            frac_time_above_10pct: f64_at(11, "frac_time_above_10pct")?,
            temporal_cv: f64_at(12, "temporal_cv")?,
            avg_spatial_spread_w: f64_at(13, "avg_spatial_spread_w")?,
            frac_time_spread_above_avg: f64_at(14, "frac_time_spread_above_avg")?,
            energy_imbalance: f64_at(15, "energy_imbalance")?,
        };
        Ok((record, summary))
    }

    /// Serial line-by-line jobs reader (the pre-engine
    /// `read_jobs_with`).
    pub(crate) fn read_jobs_with<R: BufRead>(r: R, opts: ParseOptions) -> Result<JobsTable> {
        let mut out = JobsTable::default();
        let mut quarantine = Quarantine::new(opts);
        let mut seen_ids = std::collections::HashSet::new();
        let mut lines = r.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| TraceError::parse(1, "empty file"))?;
        let header = header?;
        if header.trim() != JOBS_HEADER {
            return Err(TraceError::parse(1, format!("unexpected header: {header}")));
        }
        for (i, line) in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let lineno = i + 1;
            match parse_jobs_row(lineno, &line) {
                Ok((record, summary)) => {
                    if !seen_ids.insert(record.id) {
                        quarantine.push(
                            TraceError::parse_at(lineno, 1, format!("duplicate {}", record.id)),
                            &line,
                        )?;
                        continue;
                    }
                    out.jobs.push(record);
                    out.summaries.push(summary);
                }
                Err(e) => quarantine.push(e, &line)?,
            }
        }
        out.quarantined = quarantine.into_rows();
        Ok(out)
    }

    /// Parses one data row of `system.csv`.
    fn parse_system_row(lineno: usize, line: &str) -> Result<SystemSample> {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 3 {
            return Err(TraceError::parse_at(
                lineno,
                fields.len().min(3),
                format!("expected 3 fields, got {}", fields.len()),
            ));
        }
        let minute = fields[0]
            .parse()
            .map_err(|_| TraceError::parse_at(lineno, 1, "bad minute"))?;
        let active_nodes = fields[1]
            .parse()
            .map_err(|_| TraceError::parse_at(lineno, 2, "bad active_nodes"))?;
        let total_power_w = fields[2]
            .parse()
            .map_err(|_| TraceError::parse_at(lineno, 3, "bad total_power_w"))?;
        Ok(SystemSample {
            minute,
            active_nodes,
            total_power_w,
        })
    }

    /// Serial line-by-line system reader (the pre-engine
    /// `read_system_with`).
    pub(crate) fn read_system_with<R: BufRead>(r: R, opts: ParseOptions) -> Result<SystemTable> {
        let mut out = SystemTable::default();
        let mut quarantine = Quarantine::new(opts);
        let mut lines = r.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| TraceError::parse(1, "empty file"))?;
        if header?.trim() != SYSTEM_HEADER {
            return Err(TraceError::parse(1, "unexpected header"));
        }
        for (i, line) in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_system_row(i + 1, &line) {
                Ok(sample) => out.samples.push(sample),
                Err(e) => quarantine.push(e, &line)?,
            }
        }
        out.quarantined = quarantine.into_rows();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AppId, JobId, UserId};
    use std::io::BufReader;

    fn sample_rows() -> (Vec<JobRecord>, Vec<JobPowerSummary>) {
        let jobs = vec![
            JobRecord {
                id: JobId(0),
                user: UserId(3),
                app: AppId(1),
                submit_min: 5,
                start_min: 10,
                end_min: 70,
                nodes: 8,
                walltime_req_min: 120,
            },
            JobRecord {
                id: JobId(1),
                user: UserId(4),
                app: AppId(2),
                submit_min: 6,
                start_min: 20,
                end_min: 50,
                nodes: 1,
                walltime_req_min: 60,
            },
        ];
        let summaries = vec![
            JobPowerSummary {
                id: JobId(0),
                per_node_power_w: 151.25,
                energy_wmin: 72600.0,
                peak_overshoot: 0.08,
                frac_time_above_10pct: 0.0,
                temporal_cv: 0.04,
                avg_spatial_spread_w: 18.5,
                frac_time_spread_above_avg: 0.35,
                energy_imbalance: 0.07,
            },
            JobPowerSummary {
                id: JobId(1),
                per_node_power_w: 88.0,
                energy_wmin: 2640.0,
                peak_overshoot: 0.22,
                frac_time_above_10pct: 0.12,
                temporal_cv: 0.15,
                avg_spatial_spread_w: 0.0,
                frac_time_spread_above_avg: 0.0,
                energy_imbalance: 0.0,
            },
        ];
        (jobs, summaries)
    }

    #[test]
    fn jobs_round_trip() {
        let (jobs, summaries) = sample_rows();
        let mut buf = Vec::new();
        write_jobs(&mut buf, &jobs, &summaries).unwrap();
        let (jobs2, summaries2) = read_jobs(BufReader::new(&buf[..])).unwrap();
        assert_eq!(jobs, jobs2);
        assert_eq!(summaries, summaries2);
    }

    #[test]
    fn system_round_trip() {
        let series = vec![
            SystemSample {
                minute: 0,
                active_nodes: 100,
                total_power_w: 15000.5,
            },
            SystemSample {
                minute: 1,
                active_nodes: 101,
                total_power_w: 15100.0,
            },
        ];
        let mut buf = Vec::new();
        write_system(&mut buf, &series).unwrap();
        let back = read_system(BufReader::new(&buf[..])).unwrap();
        assert_eq!(series, back);
    }

    #[test]
    fn misaligned_rows_rejected() {
        let (jobs, mut summaries) = sample_rows();
        summaries.pop();
        let mut buf = Vec::new();
        assert!(write_jobs(&mut buf, &jobs, &summaries).is_err());
    }

    #[test]
    fn mismatched_ids_rejected() {
        let (jobs, mut summaries) = sample_rows();
        summaries.swap(0, 1);
        let mut buf = Vec::new();
        assert!(write_jobs(&mut buf, &jobs, &summaries).is_err());
    }

    #[test]
    fn bad_header_rejected() {
        let text = "nope\n1,2,3\n";
        assert!(read_jobs(BufReader::new(text.as_bytes())).is_err());
        assert!(read_system(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn bad_field_count_reports_line() {
        let text = format!("{JOBS_HEADER}\n1,2,3\n");
        match read_jobs(BufReader::new(text.as_bytes())) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn strict_error_carries_column() {
        let (jobs, summaries) = sample_rows();
        let mut buf = Vec::new();
        write_jobs(&mut buf, &jobs, &summaries).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text = text.replace("151.25", "not-a-number");
        match read_jobs(BufReader::new(text.as_bytes())) {
            Err(TraceError::Parse { line, column, message }) => {
                assert_eq!(line, 2);
                assert_eq!(column, Some(9), "per_node_power_w is field 9");
                assert!(message.contains("per_node_power_w"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn lenient_quarantines_and_recovers() {
        let (jobs, summaries) = sample_rows();
        let mut buf = Vec::new();
        write_jobs(&mut buf, &jobs, &summaries).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // Truncated row, non-numeric cell, duplicate id.
        text.push_str("7,1,1,0,0\n");
        text.push_str("8,1,1,0,10,60,abc,120,100,100,0,0,0,0,0,0\n");
        text.push_str("0,9,9,0,10,60,2,120,100,100,0,0,0,0,0,0\n");
        let table = read_jobs_with(
            BufReader::new(text.as_bytes()),
            ParseOptions::lenient(10),
        )
        .unwrap();
        assert_eq!(table.jobs.len(), 2, "good rows kept");
        assert_eq!(table.quarantined.len(), 3);
        assert_eq!(table.quarantined[0].line, 4);
        assert_eq!(table.quarantined[1].column, Some(7), "nodes is field 7");
        assert!(table.quarantined[2].message.contains("duplicate"));
    }

    #[test]
    fn lenient_respects_error_budget() {
        let (jobs, summaries) = sample_rows();
        let mut buf = Vec::new();
        write_jobs(&mut buf, &jobs, &summaries).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("bad\nworse\nterrible\n");
        match read_jobs_with(BufReader::new(text.as_bytes()), ParseOptions::lenient(2)) {
            Err(TraceError::ErrorBudgetExceeded {
                quarantined,
                budget,
                first_line,
            }) => {
                assert_eq!(quarantined, 3);
                assert_eq!(budget, 2);
                assert_eq!(first_line, 4);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn lenient_system_table_recovers() {
        let series = vec![
            SystemSample {
                minute: 0,
                active_nodes: 10,
                total_power_w: 1500.0,
            },
            SystemSample {
                minute: 1,
                active_nodes: 11,
                total_power_w: 1600.0,
            },
        ];
        let mut buf = Vec::new();
        write_system(&mut buf, &series).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("2,eleven,1600\n3,12,1700\n");
        let table = read_system_with(
            BufReader::new(text.as_bytes()),
            ParseOptions::lenient(5),
        )
        .unwrap();
        assert_eq!(table.samples.len(), 3);
        assert_eq!(table.quarantined.len(), 1);
        assert_eq!(table.quarantined[0].column, Some(2));
        // Strict mode still fails fast on the same input.
        assert!(read_system(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let (jobs, summaries) = sample_rows();
        let mut buf = Vec::new();
        write_jobs(&mut buf, &jobs, &summaries).unwrap();
        buf.extend_from_slice(b"\n\n");
        let (jobs2, _) = read_jobs(BufReader::new(&buf[..])).unwrap();
        assert_eq!(jobs2.len(), 2);
    }
}
