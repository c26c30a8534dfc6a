//! JSON export/import of whole datasets.
//!
//! CSV ([`crate::csv`]) is the interchange format for the flat tables;
//! JSON carries the full nested dataset (including instrumented series
//! and the system spec) for archival and for the figure harnesses.
//!
//! A reader that needs only some sections decodes just those
//! ([`Sections`]); the rest of the document is checked for JSON syntax
//! and nothing else, which costs a scan of its bytes.
//!
//! Reads stream: the decoder pulls the file through a window of
//! [`serde::json::READ_WINDOW`] bytes, so a load holds the decoded
//! sections and never the whole text. Writes stream too
//! ([`write_dataset`] hands the text to its writer in chunks).

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use serde::Deserialize;

use crate::dataset::{SystemSample, TraceDataset};
use crate::job::{JobPowerSummary, JobRecord};
use crate::system::SystemSpec;
use crate::{Result, TraceError};

/// Which sections of a dataset document a read decodes.
///
/// A section left out is checked for JSON syntax only and comes back
/// empty, so it may be missing, misshapen or of the wrong type without
/// failing the read; a syntax error anywhere, a malformed number
/// included, still does. Only [`Sections::All`] checks the shape of
/// every series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sections {
    /// The whole [`TraceDataset`].
    All,
    /// Everything but `instrumented`: what the report analyses read.
    /// `system_series` stays, for the system-level figures and the
    /// trace's day count.
    Analysis,
    /// `system`, `jobs`, `summaries`, `app_names` and `user_count`:
    /// what a submit-time prediction reads.
    Prediction,
}

/// The analysis sections (see [`Sections::Analysis`]); any other key is
/// skipped after a syntax check.
#[derive(Deserialize)]
struct AnalysisInput {
    system: SystemSpec,
    jobs: Vec<JobRecord>,
    summaries: Vec<JobPowerSummary>,
    system_series: Vec<SystemSample>,
    app_names: Vec<String>,
    user_count: u32,
}

/// The prediction sections (see [`Sections::Prediction`]); any other
/// key is skipped after a syntax check.
#[derive(Deserialize)]
struct PredictionInput {
    system: SystemSpec,
    jobs: Vec<JobRecord>,
    summaries: Vec<JobPowerSummary>,
    app_names: Vec<String>,
    user_count: u32,
}

impl From<AnalysisInput> for TraceDataset {
    fn from(d: AnalysisInput) -> Self {
        TraceDataset {
            system: d.system,
            jobs: d.jobs,
            summaries: d.summaries,
            system_series: d.system_series,
            instrumented: Vec::new(),
            app_names: d.app_names,
            user_count: d.user_count,
            index: Default::default(),
        }
    }
}

impl From<PredictionInput> for TraceDataset {
    fn from(d: PredictionInput) -> Self {
        TraceDataset {
            system: d.system,
            jobs: d.jobs,
            summaries: d.summaries,
            system_series: Vec::new(),
            instrumented: Vec::new(),
            app_names: d.app_names,
            user_count: d.user_count,
            index: Default::default(),
        }
    }
}

/// Decodes `sections` of one dataset document.
fn decode<R: Read>(r: R, sections: Sections) -> Result<TraceDataset> {
    match sections {
        Sections::All => serde_json::from_reader(r),
        Sections::Analysis => serde_json::from_reader::<_, AnalysisInput>(r).map(Into::into),
        Sections::Prediction => serde_json::from_reader::<_, PredictionInput>(r).map(Into::into),
    }
    .map_err(trace_error)
}

/// An I/O error stays one (unreadable or non-UTF-8 input, a failing
/// writer); anything else is an invalid dataset.
fn trace_error(e: serde_json::Error) -> TraceError {
    match e.io_error_kind() {
        Some(_) => TraceError::Io(e.into()),
        None => TraceError::Invalid(e.to_string()),
    }
}

/// Serializes a dataset to a JSON writer.
pub fn write_dataset<W: Write>(w: W, dataset: &TraceDataset) -> Result<()> {
    serde_json::to_writer(w, dataset).map_err(trace_error)
}

/// Deserializes a dataset from a JSON reader.
pub fn read_dataset<R: Read>(r: R) -> Result<TraceDataset> {
    read_sections(r, Sections::All)
}

/// Deserializes `sections` of a dataset from a JSON reader. Input that
/// cannot be read or is not UTF-8 is a [`TraceError::Io`] wherever it
/// lies, skipped sections included.
pub fn read_sections<R: Read>(r: R, sections: Sections) -> Result<TraceDataset> {
    decode(r, sections)
}

/// Writes a dataset to a JSON file.
pub fn save_dataset(path: &Path, dataset: &TraceDataset) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_dataset(BufWriter::new(file), dataset)
}

/// Reads a dataset from a JSON file.
pub fn load_dataset(path: &Path) -> Result<TraceDataset> {
    load_sections(path, Sections::All)
}

/// Reads `sections` of a dataset from a JSON file.
///
/// The analyze/report load path: the file is decoded as it is read,
/// through the decoder's fixed window (see [`read_sections`]), so the
/// load's memory is the decoded sections and not the file's size, with
/// `trace.ingest.*` byte/throughput telemetry recorded when the obs
/// gate is on.
pub fn load_sections(path: &Path, sections: Sections) -> Result<TraceDataset> {
    hpcpower_obs::time("trace.ingest.dataset_json", || {
        let started = std::time::Instant::now();
        let file = std::fs::File::open(path)?;
        let bytes = file.metadata()?.len();
        let dataset = decode(file, sections)?;
        hpcpower_obs::counter_add("trace.ingest.bytes", bytes);
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            hpcpower_obs::gauge_set("trace.ingest.bytes_per_s", bytes as f64 / secs);
        }
        Ok(dataset)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SystemSample;
    use crate::ids::{AppId, JobId, UserId};
    use crate::job::{JobPowerSummary, JobRecord};
    use crate::series::JobSeries;
    use crate::system::SystemSpec;

    fn dataset() -> TraceDataset {
        TraceDataset {
            system: SystemSpec::emmy().scaled(4),
            jobs: vec![JobRecord {
                id: JobId(0),
                user: UserId(0),
                app: AppId(0),
                submit_min: 0,
                start_min: 1,
                end_min: 4,
                nodes: 2,
                walltime_req_min: 10,
            }],
            summaries: vec![JobPowerSummary {
                id: JobId(0),
                per_node_power_w: 120.0,
                energy_wmin: 720.0,
                peak_overshoot: 0.05,
                frac_time_above_10pct: 0.0,
                temporal_cv: 0.03,
                avg_spatial_spread_w: 5.0,
                frac_time_spread_above_avg: 0.4,
                energy_imbalance: 0.02,
            }],
            system_series: vec![SystemSample {
                minute: 0,
                active_nodes: 2,
                total_power_w: 240.0,
            }],
            instrumented: vec![JobSeries::new(
                JobId(0),
                2,
                3,
                vec![118.0, 120.0, 122.0, 119.0, 121.0, 120.0],
            )
            .unwrap()],
            app_names: vec!["Gromacs".into()],
            user_count: 1,
            index: Default::default(),
        }
    }

    #[test]
    fn round_trip_in_memory() {
        let d = dataset();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back.jobs, d.jobs);
        assert_eq!(back.summaries, d.summaries);
        assert_eq!(back.system_series, d.system_series);
        assert_eq!(back.instrumented, d.instrumented);
        assert_eq!(back.system, d.system);
    }

    #[test]
    fn round_trip_file() {
        let d = dataset();
        let dir = std::env::temp_dir().join("hpcpower-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        save_dataset(&path, &d).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back.jobs, d.jobs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_dataset("not json".as_bytes()).is_err());
    }

    /// The test dataset's JSON with its one series replaced by `series`.
    fn with_series(series: &str) -> String {
        let d = dataset();
        let text = serde_json::to_string(&d).unwrap();
        let original = serde_json::to_string(&d.instrumented[0]).unwrap();
        assert_eq!(text.matches(&original).count(), 1);
        text.replace(&original, series)
    }

    fn assert_invalid_naming_job0(text: &str) {
        match read_dataset(text.as_bytes()) {
            Err(TraceError::Invalid(msg)) => assert!(msg.contains("job-0"), "{msg}"),
            other => panic!("expected TraceError::Invalid, got {other:?}"),
        }
    }

    #[test]
    fn series_missing_a_sample_is_invalid() {
        assert_invalid_naming_job0(&with_series(
            r#"{"id":0,"nodes":2,"minutes":3,"samples":[118.0,120.0,122.0,119.0,121.0]}"#,
        ));
    }

    #[test]
    fn zero_dimension_series_is_invalid() {
        assert_invalid_naming_job0(&with_series(
            r#"{"id":0,"nodes":0,"minutes":3,"samples":[]}"#,
        ));
        assert_invalid_naming_job0(&with_series(
            r#"{"id":0,"nodes":2,"minutes":0,"samples":[]}"#,
        ));
    }

    /// Reads `text` as the full dataset and as both section loads.
    fn read_all_three(text: &str) -> [Result<TraceDataset>; 3] {
        [Sections::All, Sections::Analysis, Sections::Prediction]
            .map(|sections| read_sections(text.as_bytes(), sections))
    }

    #[test]
    fn section_loads_only_syntax_check_what_they_skip() {
        // A misshapen but well-formed series fails the full load only.
        let short = with_series(r#"{"id":0,"nodes":2,"minutes":3,"samples":[118.0]}"#);
        let [all, analysis, prediction] = read_all_three(&short);
        assert!(matches!(all, Err(TraceError::Invalid(_))), "{all:?}");
        assert_eq!(analysis.unwrap().instrumented, vec![]);
        assert_eq!(prediction.unwrap().jobs, dataset().jobs);
        // A system series of the wrong type fails every load that reads it.
        let d = dataset();
        let text = serde_json::to_string(&d).unwrap();
        let series = serde_json::to_string(&d.system_series).unwrap();
        let wrong_type = text.replacen(&series, r#""none""#, 1);
        let [all, analysis, prediction] = read_all_three(&wrong_type);
        assert!(all.is_err() && analysis.is_err());
        let prediction = prediction.unwrap();
        assert_eq!(prediction.system_series, vec![]);
        assert_eq!(prediction.summaries, d.summaries);
        // A malformed number inside the series fails all three.
        let bad_number = with_series(r#"{"id":0,"nodes":2,"minutes":3,"samples":[01,1,1,1,1,1]}"#);
        for read in read_all_three(&bad_number) {
            match read {
                Err(TraceError::Invalid(msg)) => assert!(msg.contains("invalid number"), "{msg}"),
                other => panic!("expected an invalid number, got {other:?}"),
            }
        }
    }

    #[test]
    fn deeply_nested_unknown_key_is_skipped_without_recursion() {
        let text = serde_json::to_string(&dataset()).unwrap();
        let depth = 200_000;
        let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let doc = text.replacen('{', &format!("{{\"extra\":{nested},"), 1);
        let back: TraceDataset = serde_json::from_str(&doc).unwrap();
        assert_eq!(back.jobs, dataset().jobs);
        let unbalanced = text.replacen('{', &format!("{{\"extra\":{},", "[".repeat(depth)), 1);
        assert!(serde_json::from_str::<TraceDataset>(&unbalanced).is_err());
        // A file of nothing but `[` is refused at its first byte.
        assert!(read_dataset("[".repeat(depth).as_bytes()).is_err());
    }
}
