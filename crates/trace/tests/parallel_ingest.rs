//! Cross-thread determinism of the public ingestion API.
//!
//! The in-crate parity suite (`src/ingest.rs::parity`) proves the
//! engine matches the retained serial oracle; this integration suite
//! proves, through the public `read_*_with` API only, that results are
//! identical at 1, 2, and 4 threads — tables, quarantine artifacts,
//! interned name tables, and error diagnostics — on inputs large enough
//! to span several real (64 KiB+) chunks, clean and torn, strict and
//! lenient.

use std::io::BufReader;

use hpcpower_trace::csv::{
    read_jobs_with, read_system_with, JobsTable, ParseOptions, SystemTable, JOBS_HEADER,
    SYSTEM_HEADER,
};

/// Runs `op` on an installed rayon pool of `n` threads.
fn at_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("build pool")
        .install(op)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// ~190 KiB of jobs rows — several chunks even at the 64 KiB floor.
fn big_jobs_csv(torn: bool) -> String {
    let mut s = 0xfeed_f00d_u64;
    let mut text = String::from(JOBS_HEADER);
    text.push('\n');
    for i in 0..2500u32 {
        let mut line = format!(
            "{i},{},{},{},{},{},{},{},{}.5,{}.25,0.1,0.2,0.3,{}.125,0.4,0.5",
            lcg(&mut s) % 50,
            lcg(&mut s) % 12,
            lcg(&mut s) % 10_000,
            lcg(&mut s) % 10_000,
            lcg(&mut s) % 10_000,
            1 + lcg(&mut s) % 64,
            lcg(&mut s) % 5_000,
            lcg(&mut s) % 400,
            lcg(&mut s) % 900_000,
            lcg(&mut s) % 37,
        );
        if torn && i % 97 == 0 {
            line.truncate(line.len() / 2);
        }
        text.push_str(&line);
        text.push('\n');
    }
    if torn {
        let cut = text.len() - 7;
        text.truncate(cut);
    }
    text
}

fn big_system_csv(torn: bool) -> String {
    let mut s = 0xdead_beef_u64;
    let mut text = String::from(SYSTEM_HEADER);
    text.push('\n');
    for i in 0..6000u32 {
        if torn && i % 131 == 0 {
            text.push_str("not,a,row?\n");
            continue;
        }
        text.push_str(&format!(
            "{i},{},{}.75\n",
            lcg(&mut s) % 500,
            lcg(&mut s) % 10_000_000
        ));
    }
    text
}

fn jobs_key(t: &JobsTable) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        t.jobs, t.summaries, t.quarantined, t.user_names, t.app_names
    )
}

fn system_key(t: &SystemTable) -> String {
    format!("{:?}|{:?}", t.samples, t.quarantined)
}

#[test]
fn jobs_identical_across_thread_counts() {
    for torn in [false, true] {
        let text = big_jobs_csv(torn);
        for opts in [ParseOptions::strict(), ParseOptions::lenient(1000)] {
            let keys: Vec<String> = [1usize, 2, 4]
                .iter()
                .map(|&n| {
                    at_threads(n, || {
                        match read_jobs_with(BufReader::new(text.as_bytes()), opts) {
                            Ok(t) => jobs_key(&t),
                            Err(e) => format!("Err({e:?})"),
                        }
                    })
                })
                .collect();
            assert_eq!(keys[0], keys[1], "torn={torn} opts={opts:?} 1 vs 2 threads");
            assert_eq!(keys[0], keys[2], "torn={torn} opts={opts:?} 1 vs 4 threads");
            if torn && opts.mode == hpcpower_trace::csv::ParseMode::Strict {
                assert!(keys[0].starts_with("Err"), "torn strict parse must fail");
            }
        }
    }
}

#[test]
fn system_identical_across_thread_counts() {
    for torn in [false, true] {
        let text = big_system_csv(torn);
        let opts = ParseOptions::lenient(1000);
        let keys: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                at_threads(n, || {
                    system_key(&read_system_with(BufReader::new(text.as_bytes()), opts).unwrap())
                })
            })
            .collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[0], keys[2]);
    }
}

#[test]
fn interned_names_deterministic_across_thread_counts() {
    // Symbolic user/app columns on a multi-chunk file: id assignment is
    // first appearance in *file* order, so it must not vary with the
    // number of worker threads.
    let users = ["alice", "bob", "carol", "dave", "erin"];
    let apps = ["gromacs", "wrf", "openfoam", "vasp"];
    let mut text = String::from(JOBS_HEADER);
    text.push('\n');
    let mut s = 99u64;
    for i in 0..2500u32 {
        text.push_str(&format!(
            "{i},{},{},0,10,60,2,120,100.5,100,0,0,0,0,0,0\n",
            users[(lcg(&mut s) % users.len() as u64) as usize],
            apps[(lcg(&mut s) % apps.len() as u64) as usize],
        ));
    }
    let keys: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&n| {
            at_threads(n, || {
                let t = read_jobs_with(BufReader::new(text.as_bytes()), ParseOptions::strict())
                    .unwrap();
                assert_eq!(t.user_names.len(), users.len());
                assert_eq!(t.app_names.len(), apps.len());
                jobs_key(&t)
            })
        })
        .collect();
    assert_eq!(keys[0], keys[1]);
    assert_eq!(keys[0], keys[2]);
}
