//! `hpcpower profile report|diff` — inspect and compare profiles
//! written by the global `--profile-out` flag.
//!
//! Both subcommands read the folded or speedscope formats (auto-
//! detected; the SVG flamegraph is render-only). `report` prints a
//! top-N table of self wall time and, when the profile carries them
//! (speedscope does, folded does not), self allocated bytes per call
//! path; `diff` lines two profiles up by path and prints the deltas,
//! hottest movers first, with the bytes of each side when either side
//! carries them. Both are informational: they exit 0 on
//! success and 2 on unreadable input, never 3 — the regression *gate*
//! is `bench diff`, which works on the aggregate history rather than
//! a single pair of runs.

use hpcpower_obs::FlatProfile;

use crate::args::Args;
use crate::errors::CliError;

/// `hpcpower profile <subcommand>` dispatch.
pub fn cmd_profile(args: &Args) -> Result<(), CliError> {
    match args.positional.first().map(String::as_str) {
        Some("report") => cmd_report(args),
        Some("diff") => cmd_diff(args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown profile subcommand {other:?} (expected 'report' or 'diff')"
        ))),
        None => Err(CliError::Usage(
            "missing profile subcommand (expected 'report' or 'diff')".into(),
        )),
    }
}

fn load_profile(path: &str) -> Result<FlatProfile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    FlatProfile::parse(&text).map_err(|e| CliError::Usage(format!("{path}: {e}")))
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn fmt_kib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

fn cmd_report(args: &Args) -> Result<(), CliError> {
    let path = args.get("profile").ok_or("missing --profile PATH")?;
    let top: usize = args.get_or("top", 15)?;
    if top == 0 {
        return Err("--top must be >= 1".into());
    }
    let profile = load_profile(path)?;
    let total_ns = profile.total_ns();
    let has_bytes = profile.has_bytes();
    let allocated = if has_bytes {
        format!("{} KiB allocated", fmt_kib(profile.total_bytes()))
    } else {
        "no allocation data".to_string()
    };
    outln!(
        "profile report: {path} ({} path(s), total self {} ms, {allocated})",
        profile.entries.len(),
        fmt_ms(total_ns),
    )?;
    let mut entries = profile.entries;
    entries.sort_by(|a, b| {
        b.self_ns
            .cmp(&a.self_ns)
            .then(b.self_bytes.cmp(&a.self_bytes))
            .then(a.stack.cmp(&b.stack))
    });
    outln!()?;
    let alloc_col = |cell: String| {
        if has_bytes {
            format!(" {cell:>12}")
        } else {
            String::new()
        }
    };
    outln!(
        "  {:>10} {:>6}{}  path",
        "self ms",
        "self%",
        alloc_col("alloc KiB".into())
    )?;
    for e in entries.iter().take(top) {
        let pct = if total_ns > 0 {
            100.0 * e.self_ns as f64 / total_ns as f64
        } else {
            0.0
        };
        outln!(
            "  {:>10} {pct:>5.1}%{}  {}",
            fmt_ms(e.self_ns),
            alloc_col(fmt_kib(e.self_bytes)),
            e.stack.join(";"),
        )?;
    }
    if entries.len() > top {
        outln!(
            "  ... {} more path(s); raise --top to see them",
            entries.len() - top
        )?;
    }
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<(), CliError> {
    let a_path = args.get("a").ok_or("missing --a PATH")?;
    let b_path = args.get("b").ok_or("missing --b PATH")?;
    let top: usize = args.get_or("top", 15)?;
    if top == 0 {
        return Err("--top must be >= 1".into());
    }
    let a = load_profile(a_path)?;
    let b = load_profile(b_path)?;
    let has_bytes = a.has_bytes() || b.has_bytes();
    let allocated = if has_bytes {
        ""
    } else {
        ", no allocation data"
    };
    outln!(
        "profile diff: {a_path} ({} ms) -> {b_path} ({} ms){allocated}",
        fmt_ms(a.total_ns()),
        fmt_ms(b.total_ns()),
    )?;

    // Union of paths, with the per-side values; sorted by absolute
    // self-time movement so the biggest winners/losers lead.
    struct Row {
        stack: Vec<String>,
        a_ns: u64,
        b_ns: u64,
        a_bytes: u64,
        b_bytes: u64,
    }
    let mut rows: Vec<Row> = a
        .entries
        .iter()
        .map(|e| Row {
            stack: e.stack.clone(),
            a_ns: e.self_ns,
            b_ns: 0,
            a_bytes: e.self_bytes,
            b_bytes: 0,
        })
        .collect();
    for e in &b.entries {
        match rows.iter_mut().find(|r| r.stack == e.stack) {
            Some(r) => {
                r.b_ns = e.self_ns;
                r.b_bytes = e.self_bytes;
            }
            None => rows.push(Row {
                stack: e.stack.clone(),
                a_ns: 0,
                b_ns: e.self_ns,
                a_bytes: 0,
                b_bytes: e.self_bytes,
            }),
        }
    }
    rows.sort_by(|x, y| {
        let dx = x.b_ns.abs_diff(x.a_ns);
        let dy = y.b_ns.abs_diff(y.a_ns);
        dy.cmp(&dx)
            .then_with(|| {
                y.b_bytes
                    .abs_diff(y.a_bytes)
                    .cmp(&x.b_bytes.abs_diff(x.a_bytes))
            })
            .then_with(|| x.stack.cmp(&y.stack))
    });
    outln!()?;
    let alloc_cols = |a: String, b: String| {
        if has_bytes {
            format!(" {a:>11} {b:>11}")
        } else {
            String::new()
        }
    };
    outln!(
        "  {:>10} {:>10} {:>9}{}  path",
        "a ms",
        "b ms",
        "delta",
        alloc_cols("a KiB".into(), "b KiB".into())
    )?;
    for r in rows.iter().take(top) {
        let delta = if r.a_ns > 0 {
            format!(
                "{:+.1}%",
                100.0 * (r.b_ns as f64 - r.a_ns as f64) / r.a_ns as f64
            )
        } else if r.b_ns > 0 {
            "new".to_string()
        } else {
            "n/a".to_string()
        };
        outln!(
            "  {:>10} {:>10} {delta:>9}{}  {}",
            fmt_ms(r.a_ns),
            fmt_ms(r.b_ns),
            alloc_cols(fmt_kib(r.a_bytes), fmt_kib(r.b_bytes)),
            r.stack.join(";"),
        )?;
    }
    if rows.len() > top {
        outln!(
            "  ... {} more path(s); raise --top to see them",
            rows.len() - top
        )?;
    }
    Ok(())
}
