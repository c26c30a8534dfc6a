//! Acceptance matrix for crash-safe resumable simulation: interrupted
//! checkpointed runs, resumed at a possibly different thread count,
//! must reproduce the monolithic dataset **byte-for-byte** across
//! seeds × threads × fault rates; and a chunk torn behind the
//! journal's back must be quarantined (marker left) and redone, never
//! silently trusted.

use std::path::PathBuf;

use hpcpower_sim::checkpoint::{ChaosPlan, CheckpointError, CheckpointOptions};
use hpcpower_sim::{resume, run_checkpointed, simulate, FaultConfig, SimConfig};
use hpcpower_trace::recover::RealFs;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hpcpower-ckpt-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The matrix workload: small enough that 8 combinations stay cheap,
/// large enough to span several chunks at the sizes used below.
fn matrix_cfg(seed: u64, threads: usize, fault_rate: f64) -> SimConfig {
    let mut cfg = SimConfig::emmy(seed).scaled_down(24, 2 * 1440, 16);
    cfg.threads = threads;
    if fault_rate > 0.0 {
        cfg.faults = FaultConfig::at_rate(fault_rate);
    }
    cfg
}

/// One cell of the matrix: monolithic baseline, interrupted
/// checkpointed run, resume, byte comparison.
fn assert_resume_identity(seed: u64, threads: usize, fault_rate: f64) {
    let cfg = matrix_cfg(seed, threads, fault_rate);
    let monolithic = simulate(cfg.clone());
    let baseline = serde_json::to_string(&monolithic).expect("serialize baseline");

    let dir = tmpdir(&format!(
        "s{seed}-t{threads}-f{}",
        (fault_rate * 100.0) as u32
    ));
    let mut opts = CheckpointOptions::new(&dir);
    // At least four chunks, deliberately not a divisor of the job count.
    opts.chunk_jobs = (monolithic.len() / 4).max(1) | 1;
    opts.chaos = ChaosPlan {
        stop_after_chunk: Some(1),
        ..ChaosPlan::default()
    };
    match run_checkpointed(&cfg, &opts, &RealFs) {
        Err(CheckpointError::Interrupted { committed, total }) => {
            assert_eq!(committed, 2, "seed {seed}: stop hook fired late");
            assert!(
                total > 2,
                "seed {seed}: workload spans too few chunks ({total})"
            );
        }
        other => panic!("seed {seed}: expected Interrupted, got {other:?}"),
    }

    let resumed = resume(&dir, Some(threads), &RealFs)
        .unwrap_or_else(|e| panic!("seed {seed} threads {threads}: resume failed: {e}"))
        .dataset;
    assert_eq!(
        serde_json::to_string(&resumed).expect("serialize resumed"),
        baseline,
        "seed {seed}, threads {threads}, faults {fault_rate}: resumed dataset \
         must be byte-identical to the monolithic run"
    );
    std::fs::remove_dir_all(&dir).expect("clean scratch");
}

#[test]
fn resume_identity_seed_11_threads_1_faults_off() {
    assert_resume_identity(11, 1, 0.0);
}

#[test]
fn resume_identity_seed_11_threads_4_faults_off() {
    assert_resume_identity(11, 4, 0.0);
}

#[test]
fn resume_identity_seed_11_threads_1_faults_5pct() {
    assert_resume_identity(11, 1, 0.05);
}

#[test]
fn resume_identity_seed_11_threads_4_faults_5pct() {
    assert_resume_identity(11, 4, 0.05);
}

#[test]
fn resume_identity_seed_29_threads_1_faults_off() {
    assert_resume_identity(29, 1, 0.0);
}

#[test]
fn resume_identity_seed_29_threads_4_faults_off() {
    assert_resume_identity(29, 4, 0.0);
}

#[test]
fn resume_identity_seed_29_threads_1_faults_5pct() {
    assert_resume_identity(29, 1, 0.05);
}

#[test]
fn resume_identity_seed_29_threads_4_faults_5pct() {
    assert_resume_identity(29, 4, 0.05);
}

/// A resume may not change the thread count's *meaning*: interrupt at
/// 1 thread, resume at 4, and the bytes still match a monolithic run
/// at either thread count (which are themselves identical).
#[test]
fn cross_thread_resume_is_byte_identical() {
    let cfg1 = matrix_cfg(43, 1, 0.05);
    let monolithic = simulate(cfg1.clone());
    let baseline = serde_json::to_string(&monolithic).expect("serialize baseline");

    let dir = tmpdir("cross-thread");
    let mut opts = CheckpointOptions::new(&dir);
    opts.chunk_jobs = (monolithic.len() / 5).max(1);
    opts.chaos = ChaosPlan {
        stop_after_chunk: Some(2),
        ..ChaosPlan::default()
    };
    match run_checkpointed(&cfg1, &opts, &RealFs) {
        Err(CheckpointError::Interrupted { .. }) => {}
        other => panic!("expected Interrupted, got {other:?}"),
    }
    let resumed = resume(&dir, Some(4), &RealFs)
        .expect("resume at 4 threads")
        .dataset;
    assert_eq!(
        serde_json::to_string(&resumed).expect("serialize"),
        baseline
    );
    std::fs::remove_dir_all(&dir).expect("clean scratch");
}

/// Torn-chunk invariant through the public API: a chunk truncated
/// behind the journal's back is quarantined — the `.torn` marker must
/// exist — and redone, and the final bytes still match.
#[test]
fn torn_chunk_leaves_quarantine_marker_and_is_redone() {
    let cfg = matrix_cfg(59, 2, 0.0);
    let monolithic = simulate(cfg.clone());
    let dir = tmpdir("torn-marker");
    let mut opts = CheckpointOptions::new(&dir);
    opts.chunk_jobs = (monolithic.len() / 5).max(1);
    opts.chaos = ChaosPlan {
        stop_after_chunk: Some(2),
        ..ChaosPlan::default()
    };
    match run_checkpointed(&cfg, &opts, &RealFs) {
        Err(CheckpointError::Interrupted { .. }) => {}
        other => panic!("expected Interrupted, got {other:?}"),
    }

    let victim = dir.join("chunks").join("chunk-000001.bin");
    let whole = std::fs::read(&victim).expect("committed chunk exists");
    std::fs::write(&victim, &whole[..whole.len() / 3]).expect("tear the chunk");

    let resumed = resume(&dir, None, &RealFs)
        .expect("resume past torn chunk")
        .dataset;
    assert!(
        dir.join("chunks").join("chunk-000001.bin.torn").exists(),
        "a torn chunk must never disappear without a quarantine marker"
    );
    assert_eq!(
        serde_json::to_string(&resumed).expect("serialize"),
        serde_json::to_string(&monolithic).expect("serialize"),
        "redone chunk must restore byte identity"
    );
    std::fs::remove_dir_all(&dir).expect("clean scratch");
}
