//! Usage errors: every command accepts the global flags plus its own,
//! and anything else exits 2 naming the offending flag before any work
//! is done.

use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpcpower"))
        .args(args)
        .output()
        .expect("spawn hpcpower")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "hpcpower {args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "hpcpower {args:?} must name {needle}: {stderr}"
    );
}

/// A misspelt flag stops the run before anything is written, rather
/// than running silently with the default seed.
#[test]
fn misspelt_flag_exits_2_and_writes_nothing() {
    let out_dir = std::env::temp_dir().join(format!("hpcpower-usage-{}", std::process::id()));
    let out_str = out_dir.to_str().unwrap();
    assert_usage_error(
        &[
            "simulate", "--seeed", "7", "--nodes", "16", "--days", "2", "--users", "8", "--out",
            out_str,
        ],
        "--seeed",
    );
    assert!(
        !out_dir.exists(),
        "a rejected command must not write its outputs"
    );
}

/// Removed flags are unknown flags: the live service's `--serve` and
/// the SWF export's `--swf`.
#[test]
fn removed_live_service_flag_exits_2() {
    assert_usage_error(
        &[
            "simulate", "--serve", ":0", "--nodes", "16", "--days", "2", "--users", "8",
        ],
        "--serve",
    );
    assert_usage_error(
        &[
            "simulate", "--swf", "--nodes", "16", "--days", "2", "--users", "8",
        ],
        "--swf",
    );
}

/// A flag is checked against the command it is given to, not against
/// the union of all commands.
#[test]
fn another_commands_flag_exits_2() {
    assert_usage_error(
        &["analyze", "--data", "x.json", "--faults", "0.1"],
        "--faults",
    );
}

#[test]
fn removed_commands_are_unknown() {
    for cmd in ["obs", "alerts", "chaos"] {
        assert_usage_error(&[cmd], "unknown command");
    }
}

/// A reader that is already gone (`hpcpower … | true`) leaves stdout
/// closed; the command's output is then done, not a panic.
#[test]
fn closed_stdout_exits_0_without_panicking() {
    let dir = std::env::temp_dir().join(format!("hpcpower-closed-stdout-{}", std::process::id()));
    let d = dir.to_str().unwrap();
    let sim = run(&[
        "simulate", "--nodes", "16", "--days", "2", "--users", "8", "--quiet", "--out", d,
    ]);
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let (data, jobs, system) = (
        format!("{d}/dataset.json"),
        format!("{d}/jobs.csv"),
        format!("{d}/system.csv"),
    );
    for args in [
        vec!["help"],
        vec![
            "predict",
            "--data",
            &data,
            "--user",
            "1",
            "--nodes",
            "2",
            "--walltime-h",
            "1",
        ],
        vec![
            "ingest", "--jobs", &jobs, "--system", &system, "--nodes", "16",
        ],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_hpcpower"))
            .args(&args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn hpcpower");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "hpcpower {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "hpcpower {args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
