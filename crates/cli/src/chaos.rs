//! `hpcpower chaos run` — deterministic crash and fault drills that
//! assert the recovery invariants end to end:
//!
//! * `kill` — SIGKILL a checkpointed `simulate` child right after a
//!   chunk commit, resume it (at a different thread count), and
//!   require the resumed dataset to be **byte-identical** to an
//!   uninterrupted run.
//! * `stall` — freeze a stage mid-run and require `--stage-timeout`
//!   to trip the watchdog with the resumable exit code 6.
//! * `enospc`, `short-write`, `fsync-fail` — drive
//!   [`hpcpower_trace::recover::atomic_write`] through an injected
//!   filesystem fault at every mutation point and require that the
//!   recovery sweep never leaves a torn artifact without a quarantine
//!   marker.
//!
//! Every scenario prints `PASS`/`FAIL`; any failure exits 5 and keeps
//! the scratch directory for inspection.

use std::path::{Path, PathBuf};
use std::process::Output;

use crate::args::Args;
use crate::errors::{CliError, EXIT_INTERRUPTED};
use hpcpower_trace::recover::{
    atomic_write, scan_dir, verify, ArtifactState, ChaosFs, FaultKind, RealFs,
};

/// Fixed tiny workload shared by the subprocess scenarios: a couple of
/// hundred jobs, so a chunk size of 8 yields plenty of kill points while
/// the whole drill stays under a few seconds.
const WORKLOAD: &[&str] = &[
    "simulate", "--system", "emmy", "--seed", "7", "--nodes", "24", "--days", "2", "--users",
    "16", "--quiet",
];

/// `hpcpower chaos <subcommand>` dispatch. Only `run` exists today.
pub fn cmd_chaos(args: &Args) -> Result<(), CliError> {
    match args.positional.first().map(String::as_str) {
        Some("run") => {}
        other => {
            return Err(CliError::Usage(format!(
                "usage: hpcpower chaos run [--scenario NAME] [--dir DIR] [--keep] (got {other:?})"
            )));
        }
    }
    let dir = match args.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("hpcpower-chaos-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).map_err(CliError::io)?;

    const ALL: &[&str] = &["kill", "stall", "enospc", "short-write", "fsync-fail"];
    let selected: Vec<&str> = match args.get("scenario").unwrap_or("all") {
        "all" => ALL.to_vec(),
        name if ALL.contains(&name) => vec![name],
        other => {
            return Err(CliError::Usage(format!(
                "unknown chaos scenario {other:?} (kill|stall|enospc|short-write|fsync-fail|all)"
            )));
        }
    };

    let mut failed = 0usize;
    for name in &selected {
        let result = match *name {
            "kill" => scenario_kill(&dir),
            "stall" => scenario_stall(&dir),
            fs_kind => scenario_fs(fs_kind, &dir),
        };
        match result {
            Ok(detail) => outln!("PASS {name}: {detail}")?,
            Err(why) => {
                failed += 1;
                outln!("FAIL {name}: {why}")?;
            }
        }
    }
    if failed == 0 {
        outln!("chaos: all {} scenario(s) passed", selected.len())?;
        if !args.has("keep") {
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    } else {
        eprintln!("chaos: scratch kept in {}", dir.display());
        Err(CliError::Io(format!(
            "chaos: {failed}/{} scenario(s) failed",
            selected.len()
        )))
    }
}

/// Runs this same binary with `args`, capturing output.
fn run_self(args: &[&str]) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// kill: checkpointed child is SIGKILLed after chunk 1; a resume at a
/// different thread count must reproduce the uninterrupted bytes.
fn scenario_kill(dir: &Path) -> Result<String, String> {
    let base = dir.join("kill-base");
    let ckpt = dir.join("kill-ckpt");
    let resumed = dir.join("kill-resumed");

    let mut baseline: Vec<String> = WORKLOAD.iter().map(|s| s.to_string()).collect();
    baseline.extend(["--threads".into(), "2".into(), "--out".into(), path_str(&base)]);
    let out = run_self(&baseline.iter().map(String::as_str).collect::<Vec<_>>())?;
    if !out.status.success() {
        return Err(format!(
            "baseline simulate failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }

    let mut victim: Vec<String> = WORKLOAD.iter().map(|s| s.to_string()).collect();
    victim.extend([
        "--threads".into(), "2".into(),
        "--checkpoint-dir".into(), path_str(&ckpt),
        "--chunk-jobs".into(), "8".into(),
        "--chaos-kill-after-chunk".into(), "1".into(),
        "--out".into(), path_str(dir.join("kill-victim-out").as_path()),
    ]);
    let out = run_self(&victim.iter().map(String::as_str).collect::<Vec<_>>())?;
    if out.status.success() {
        return Err("victim survived --chaos-kill-after-chunk 1".to_string());
    }

    let resume_args = [
        "simulate", "--resume", &path_str(&ckpt), "--threads", "4", "--quiet", "--out",
        &path_str(&resumed),
    ];
    let out = run_self(&resume_args)?;
    if !out.status.success() {
        return Err(format!(
            "resume failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }

    let a = std::fs::read(base.join("dataset.json")).map_err(|e| e.to_string())?;
    let b = std::fs::read(resumed.join("dataset.json")).map_err(|e| e.to_string())?;
    if a != b {
        return Err(format!(
            "resumed dataset differs from the uninterrupted baseline ({} vs {} bytes)",
            b.len(),
            a.len()
        ));
    }
    Ok(format!(
        "SIGKILL at chunk 1, resumed at 4 threads; dataset byte-identical ({} bytes)",
        a.len()
    ))
}

/// stall: a frozen stage must trip `--stage-timeout` with exit 6.
fn scenario_stall(dir: &Path) -> Result<String, String> {
    let ckpt = dir.join("stall-ckpt");
    let mut stalled: Vec<String> = WORKLOAD.iter().map(|s| s.to_string()).collect();
    stalled.extend([
        "--checkpoint-dir".into(), path_str(&ckpt),
        "--chunk-jobs".into(), "8".into(),
        "--chaos-stall-at-chunk".into(), "1".into(),
        "--chaos-stall-ms".into(), "30000".into(),
        "--stage-timeout".into(), "1".into(),
        "--out".into(), path_str(dir.join("stall-out").as_path()),
    ]);
    let out = run_self(&stalled.iter().map(String::as_str).collect::<Vec<_>>())?;
    match out.status.code() {
        Some(code) if code == EXIT_INTERRUPTED => Ok(format!(
            "stalled stage tripped the watchdog with exit {EXIT_INTERRUPTED} (resumable)"
        )),
        other => Err(format!(
            "expected exit {EXIT_INTERRUPTED}, got {other:?}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Filesystem-fault drill: inject `kind` at every mutation point of an
/// atomic overwrite and require that after the recovery sweep the
/// artifact is either a whole version or quarantined — never silently
/// torn.
fn scenario_fs(name: &str, dir: &Path) -> Result<String, String> {
    let kind = match name {
        "enospc" => FaultKind::Enospc,
        "short-write" => FaultKind::ShortWrite,
        "fsync-fail" => FaultKind::FsyncFail,
        other => return Err(format!("not a filesystem scenario: {other}")),
    };
    let arena = dir.join(format!("fs-{name}"));
    const V1: &[u8] = b"version-1";
    const V2: &[u8] = b"version-2-which-is-longer";
    let mut drilled = 0usize;
    for op in 0..12 {
        let _ = std::fs::remove_dir_all(&arena);
        std::fs::create_dir_all(&arena).map_err(|e| e.to_string())?;
        let path = arena.join("artifact.bin");
        atomic_write(&RealFs, &path, V1).map_err(|e| format!("seeding v1: {e}"))?;

        let chaos = ChaosFs::new(kind, op, false);
        let attempt = atomic_write(&chaos, &path, V2);
        if chaos.faults_fired() == 0 {
            // The overwrite uses fewer mutation ops than `op`: the
            // whole fault surface has been drilled.
            attempt.map_err(|e| format!("op {op}: no fault fired yet write failed: {e}"))?;
            break;
        }
        drilled += 1;
        if attempt.is_ok() {
            return Err(format!("op {op}: fault fired but atomic_write returned Ok"));
        }

        scan_dir(&RealFs, &arena).map_err(|e| format!("op {op}: recovery sweep failed: {e}"))?;
        match verify(&path) {
            ArtifactState::Verified(_) => {
                let body = std::fs::read(&path).map_err(|e| e.to_string())?;
                if body != V1 && body != V2 {
                    return Err(format!(
                        "op {op}: verified artifact is neither version ({} bytes)",
                        body.len()
                    ));
                }
            }
            ArtifactState::Missing => {
                // Quarantined wholesale — the marker must exist.
                if !arena.join("artifact.bin.torn").exists() {
                    return Err(format!(
                        "op {op}: artifact gone without a quarantine marker"
                    ));
                }
            }
            ArtifactState::Torn(why) => {
                return Err(format!(
                    "op {op}: artifact still torn after the recovery sweep: {why}"
                ));
            }
        }
    }
    if drilled == 0 {
        return Err("no fault point was ever exercised".to_string());
    }
    Ok(format!(
        "{drilled} fault point(s) drilled; no unquarantined torn artifact survived"
    ))
}
