//! Torn-input ingestion: CSV tables cut mid-record — the exact shape a
//! crash mid-write or a truncated download leaves behind — must be
//! recoverable. Strict mode refuses them loudly; lenient mode
//! quarantines the torn rows, the repair pass restores validity, and a
//! second repair finds nothing left to do (idempotence).

use std::io::BufReader;

use hpcpower_trace::csv::{
    read_jobs_with, read_system_with, write_jobs, write_system, ParseOptions,
};
use hpcpower_trace::dataset::SystemSample;
use hpcpower_trace::repair::{repair, RepairConfig, RepairPolicy};
use hpcpower_trace::validate;
use hpcpower_trace::{
    AppId, JobId, JobPowerSummary, JobRecord, SystemSpec, TraceDataset, TraceError, UserId,
};

/// A small, internally consistent jobs table: `n` ten-minute jobs on
/// two nodes each, energy matching power × nodes × runtime.
fn well_formed_jobs(n: u32) -> (Vec<JobRecord>, Vec<JobPowerSummary>) {
    let mut jobs = Vec::new();
    let mut summaries = Vec::new();
    for i in 0..n {
        let id = JobId(i);
        jobs.push(JobRecord {
            id,
            user: UserId(i % 4),
            app: AppId(i % 3),
            submit_min: u64::from(i),
            start_min: u64::from(i) + 1,
            end_min: u64::from(i) + 11,
            nodes: 2,
            walltime_req_min: 20,
        });
        summaries.push(JobPowerSummary {
            id,
            per_node_power_w: 100.0,
            energy_wmin: 100.0 * 2.0 * 10.0,
            peak_overshoot: 0.1,
            frac_time_above_10pct: 0.9,
            temporal_cv: 0.05,
            avg_spatial_spread_w: 5.0,
            frac_time_spread_above_avg: 0.4,
            energy_imbalance: 0.02,
        });
    }
    (jobs, summaries)
}

fn jobs_csv(n: u32) -> String {
    let (jobs, summaries) = well_formed_jobs(n);
    let mut buf = Vec::new();
    write_jobs(&mut buf, &jobs, &summaries).expect("serialize jobs table");
    String::from_utf8(buf).expect("CSV is UTF-8")
}

fn system_csv(minutes: u64) -> String {
    let samples: Vec<SystemSample> = (0..minutes)
        .map(|m| SystemSample {
            minute: m,
            active_nodes: 8,
            total_power_w: 900.0 + m as f64,
        })
        .collect();
    let mut buf = Vec::new();
    write_system(&mut buf, &samples).expect("serialize system table");
    String::from_utf8(buf).expect("CSV is UTF-8")
}

/// Cuts `text` mid-way through its final line, leaving a torn tail
/// with no trailing newline — what an interrupted writer leaves.
fn tear_tail(text: &str) -> String {
    let body = text.trim_end_matches('\n');
    let last_start = body.rfind('\n').expect("more than one line") + 1;
    let cut = last_start + (body.len() - last_start) / 2;
    body[..cut].to_string()
}

#[test]
fn strict_mode_refuses_a_torn_jobs_table() {
    let torn = tear_tail(&jobs_csv(20));
    let err = read_jobs_with(BufReader::new(torn.as_bytes()), ParseOptions::strict())
        .expect_err("strict parse must refuse the torn row");
    match err {
        TraceError::Parse { line, .. } => assert_eq!(line, 21, "points at the torn row"),
        other => panic!("expected Parse error, got {other}"),
    }
}

#[test]
fn lenient_mode_quarantines_the_torn_jobs_row_and_keeps_the_rest() {
    let torn = tear_tail(&jobs_csv(20));
    let table = read_jobs_with(BufReader::new(torn.as_bytes()), ParseOptions::lenient(10))
        .expect("lenient parse recovers");
    assert_eq!(table.jobs.len(), 19, "every whole row survives");
    assert_eq!(
        table.quarantined.len(),
        1,
        "exactly the torn row is refused"
    );
    assert_eq!(table.quarantined[0].line, 21);
}

#[test]
fn lenient_mode_quarantines_a_torn_system_row_and_keeps_the_rest() {
    let torn = tear_tail(&system_csv(30));
    let table = read_system_with(BufReader::new(torn.as_bytes()), ParseOptions::lenient(10))
        .expect("lenient parse recovers");
    assert_eq!(table.samples.len(), 29);
    assert_eq!(table.quarantined.len(), 1);
}

#[test]
fn garbage_spliced_mid_file_is_quarantined_not_fatal() {
    // A torn write that was later appended over: whole rows, then a
    // binary-ish fragment, then more whole rows.
    let clean = jobs_csv(12);
    let mut lines: Vec<&str> = clean.lines().collect();
    lines.insert(7, "6,1,\u{0}\u{0}garbage");
    lines.insert(8, "99999");
    let spliced = lines.join("\n");
    let table = read_jobs_with(
        BufReader::new(spliced.as_bytes()),
        ParseOptions::lenient(10),
    )
    .expect("lenient parse recovers");
    assert_eq!(table.jobs.len(), 12, "all real rows survive the splice");
    assert_eq!(
        table.quarantined.len(),
        2,
        "both garbage fragments quarantined"
    );
}

#[test]
fn error_budget_bounds_how_much_tearing_is_tolerated() {
    let clean = jobs_csv(10);
    let mut lines: Vec<String> = clean.lines().map(String::from).collect();
    for i in 0..4 {
        lines.push(format!("torn-fragment-{i}"));
    }
    let torn = lines.join("\n");
    match read_jobs_with(BufReader::new(torn.as_bytes()), ParseOptions::lenient(2)) {
        Err(TraceError::ErrorBudgetExceeded {
            quarantined,
            budget,
            ..
        }) => {
            assert_eq!(budget, 2);
            assert!(quarantined > budget);
        }
        other => panic!("expected ErrorBudgetExceeded, got {other:?}"),
    }
}

/// End to end: torn jobs + torn system tables, lenient ingestion,
/// repair, validation — and the repair is idempotent.
#[test]
fn torn_tables_repair_to_a_valid_dataset_idempotently() {
    let jobs_table = read_jobs_with(
        BufReader::new(tear_tail(&jobs_csv(24)).as_bytes()),
        ParseOptions::lenient(10),
    )
    .expect("lenient jobs parse");
    let system_table = read_system_with(
        BufReader::new(tear_tail(&system_csv(40)).as_bytes()),
        ParseOptions::lenient(10),
    )
    .expect("lenient system parse");
    let quarantined = jobs_table.quarantined.len() + system_table.quarantined.len();
    assert_eq!(quarantined, 2, "one torn tail per table");

    let mut dataset = TraceDataset {
        system: SystemSpec::emmy().scaled(16),
        jobs: jobs_table.jobs,
        summaries: jobs_table.summaries,
        system_series: system_table.samples,
        instrumented: Vec::new(),
        app_names: Vec::new(),
        user_count: 0,
        index: Default::default(),
    };
    let mut cfg = RepairConfig::with_policy(RepairPolicy::DropJob);
    cfg.rows_quarantined = quarantined as u64;
    let quality = repair(&mut dataset, &cfg);
    assert_eq!(
        quality.rows_quarantined, 2,
        "report carries the ingestion context"
    );
    assert_eq!(quality.violations_after, 0);
    validate::validate(&dataset).expect("repaired dataset validates");

    // Idempotence: a second pass over the repaired dataset has nothing
    // left to fix.
    let again = repair(
        &mut dataset,
        &RepairConfig::with_policy(RepairPolicy::DropJob),
    );
    assert!(
        again.is_clean(),
        "second repair must be a no-op, found: {again:?}"
    );
    validate::validate(&dataset).expect("still valid after the second pass");
}
