#!/usr/bin/env sh
# Tier-1 gate: build, test, lint, observability smoke — fully offline,
# workspace-local shims. Run from the repo root: ./scripts/tier1.sh
set -eu
cd "$(dirname "$0")/.."

# --workspace everywhere: the root umbrella package does not depend on
# hpcpower-cli, so a bare `cargo build --release` would leave a stale
# ./target/release/hpcpower for the smoke runs below.
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::needless_collect -D clippy::redundant_clone
# The ingest engine is supposed to be zero-copy on the happy path: deny
# needless owned-string churn in the trace crate specifically.
cargo clippy -p hpcpower-trace --all-targets -- -D warnings \
    -D clippy::needless_collect -D clippy::redundant_clone \
    -D clippy::unnecessary_to_owned

# Observability smoke: a real CLI run with --metrics-out must emit a
# parseable metrics document containing the required span timings and
# counters.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/hpcpower simulate --system emmy --seed 3 \
    --nodes 24 --days 2 --users 10 --quiet \
    --out "$SMOKE_DIR/trace" --metrics-out "$SMOKE_DIR/metrics.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SMOKE_DIR/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
assert m["spans"]["simulate"]["total_ns"] > 0, "simulate span missing/zero"
for counter in ("sim.monitor.samples", "sim.jobs.placed", "sim.sched.backfill_hits"):
    assert counter in m["counters"], f"missing counter {counter}"
assert m["counters"]["sim.monitor.samples"] > 0, "no monitor samples recorded"
print("obs smoke: metrics JSON valid")
EOF
else
    # Fallback without python3: structural greps on the document.
    grep -q '"simulate"' "$SMOKE_DIR/metrics.json"
    grep -q '"sim.monitor.samples"' "$SMOKE_DIR/metrics.json"
    grep -q '"sim.sched.backfill_hits"' "$SMOKE_DIR/metrics.json"
    echo "obs smoke: metrics JSON contains required keys (python3 unavailable)"
fi

# Exporter smoke: the same run with --trace-out must emit a balanced
# Chrome trace, and --metrics-format prom a lint-clean Prometheus
# exposition.
./target/release/hpcpower simulate --system emmy --seed 3 \
    --nodes 24 --days 2 --users 10 --quiet \
    --out "$SMOKE_DIR/trace2" --trace-out "$SMOKE_DIR/trace.json" \
    --metrics-out "$SMOKE_DIR/metrics.prom" --metrics-format prom
cmp -s "$SMOKE_DIR/trace/dataset.json" "$SMOKE_DIR/trace2/dataset.json" \
    || { echo "obs smoke: exporters changed dataset bytes" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SMOKE_DIR/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    t = json.load(f)
events = t["traceEvents"]
assert events, "empty trace"
stacks = {}
for e in events:
    assert e["ph"] in ("B", "E"), f"unexpected phase {e['ph']}"
    s = stacks.setdefault(e["tid"], [])
    if e["ph"] == "B":
        s.append(e["name"])
    else:
        assert s and s.pop() == e["name"], f"unbalanced E {e['name']}"
assert all(not s for s in stacks.values()), "spans left open"
assert t["metadata"]["events_unmatched"] == 0
print(f"obs smoke: chrome trace valid ({len(events)} events)")
EOF
else
    grep -q '"traceEvents"' "$SMOKE_DIR/trace.json"
    grep -q '"ph":"B"' "$SMOKE_DIR/trace.json"
    echo "obs smoke: chrome trace present (python3 unavailable)"
fi
grep -q '^# TYPE sim_jobs_placed_total counter$' "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE simulate_cmd_seconds summary$' "$SMOKE_DIR/metrics.prom"
echo "obs smoke: prometheus exposition present"

# Profiling smoke: --profile-out must leave the dataset byte-identical,
# emit a non-empty folded profile rooted at the simulate span, and a
# well-formed flamegraph SVG; `profile report` must read the result.
./target/release/hpcpower simulate --system emmy --seed 3 \
    --nodes 24 --days 2 --users 10 --quiet \
    --out "$SMOKE_DIR/trace3" --profile-out "$SMOKE_DIR/profile.folded"
cmp -s "$SMOKE_DIR/trace/dataset.json" "$SMOKE_DIR/trace3/dataset.json" \
    || { echo "profile smoke: profiling changed dataset bytes" >&2; exit 1; }
[ -s "$SMOKE_DIR/profile.folded" ] \
    || { echo "profile smoke: folded profile is empty" >&2; exit 1; }
grep -q '^simulate' "$SMOKE_DIR/profile.folded" \
    || { echo "profile smoke: folded stacks not rooted at simulate" >&2; exit 1; }
./target/release/hpcpower simulate --system emmy --seed 3 \
    --nodes 24 --days 2 --users 10 --quiet \
    --out "$SMOKE_DIR/trace4" --profile-out "$SMOKE_DIR/flame.svg"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SMOKE_DIR/flame.svg" <<'EOF'
import sys, xml.etree.ElementTree as ET
root = ET.parse(sys.argv[1]).getroot()
assert root.tag.endswith("svg"), f"root element is {root.tag}"
rects = root.iter("{http://www.w3.org/2000/svg}rect")
assert sum(1 for _ in rects) > 0, "flamegraph has no frames"
print("profile smoke: flamegraph SVG well-formed")
EOF
else
    grep -q '^<svg ' "$SMOKE_DIR/flame.svg"
    grep -q '</svg>' "$SMOKE_DIR/flame.svg"
    echo "profile smoke: flamegraph SVG present (python3 unavailable)"
fi
./target/release/hpcpower profile report --profile "$SMOKE_DIR/profile.folded" \
    --top 5 | grep -q 'simulate' \
    || { echo "profile smoke: report does not list the simulate path" >&2; exit 1; }
echo "profile smoke: folded + SVG + report OK"

# Criterion pipeline bench, quick mode: one shortened pass over the
# end-to-end benches so panics and API rot surface in CI without the
# full sampling budget. Timings printed here are not gate inputs.
CRITERION_QUICK=1 cargo bench -q -p hpcpower-bench --bench pipeline

# Perf-regression gate, warn-only: the committed history's runs come
# from different machines, so a slower CI box must not fail the build —
# but the diff itself has to parse the history and compute deltas.
# With no history yet, seed a baseline (small run) so the next pass has
# something to diff against; `bench diff` itself degrades to a clear
# "no baseline yet" message rather than failing.
if [ ! -f BENCH_pipeline.json ]; then
    echo "bench: no history, seeding a --small baseline"
    cargo run -q --release -p hpcpower-bench --bin pipeline -- --small
fi
./target/release/hpcpower bench diff --bench BENCH_pipeline.json \
    --fail-on-regress 20 \
    || echo "warning: bench diff reported a regression (soft gate, not failing)" >&2

# Fault-injection smoke: a dirty trace must round-trip through
# ingest-with-repair and then analyze cleanly, with a data-quality
# section in both the text and JSON reports. `grep -q` exits at its
# first match and closes the pipe, so the ingest's stderr is checked
# too: a write to the closed stdout must end quietly, not panic.
./target/release/hpcpower simulate --system emmy --seed 5 \
    --nodes 16 --days 3 --users 8 --quiet --faults 0.05 \
    --out "$SMOKE_DIR/dirty" | grep -q 'faults injected:'
./target/release/hpcpower ingest --jobs "$SMOKE_DIR/dirty/jobs.csv" \
    --system "$SMOKE_DIR/dirty/system.csv" --nodes 16 --lenient \
    --repair-policy hold-last --out "$SMOKE_DIR/repaired" \
    2> "$SMOKE_DIR/ingest-smoke.err" | grep -q '0 after'
if grep -q 'panicked' "$SMOKE_DIR/ingest-smoke.err"; then
    cat "$SMOKE_DIR/ingest-smoke.err" >&2
    echo "fault smoke: ingest panicked" >&2
    exit 1
fi
./target/release/hpcpower analyze --data "$SMOKE_DIR/repaired/dataset.json" \
    --splits 2 >/dev/null
./target/release/hpcpower analyze --data "$SMOKE_DIR/dirty/dataset.json" \
    --splits 2 --repair-policy drop-job --json \
    > "$SMOKE_DIR/quality-report.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SMOKE_DIR/quality-report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
q = r["data_quality"]
assert q is not None, "data_quality section missing"
assert q["violations_after"] == 0, "repair left violations"
assert q["policy"] == "DropJob", f"unexpected policy {q['policy']}"
print("fault smoke: repaired report JSON valid")
EOF
else
    grep -q '"data_quality"' "$SMOKE_DIR/quality-report.json"
    grep -q '"violations_after": 0' "$SMOKE_DIR/quality-report.json"
    echo "fault smoke: quality section present (python3 unavailable)"
fi
# Parallel-ingest determinism smoke: the chunked engine must produce
# byte-identical outputs at any thread count — dataset, quality report,
# and the quarantine diagnostics — including on the dirty fixture where
# rows actually quarantine.
./target/release/hpcpower ingest --jobs "$SMOKE_DIR/dirty/jobs.csv" \
    --system "$SMOKE_DIR/dirty/system.csv" --nodes 16 --lenient \
    --repair-policy hold-last --threads 1 \
    --out "$SMOKE_DIR/ingest-t1" > "$SMOKE_DIR/ingest-t1.out" 2>&1
./target/release/hpcpower ingest --jobs "$SMOKE_DIR/dirty/jobs.csv" \
    --system "$SMOKE_DIR/dirty/system.csv" --nodes 16 --lenient \
    --repair-policy hold-last --threads 4 \
    --out "$SMOKE_DIR/ingest-t4" > "$SMOKE_DIR/ingest-t4.out" 2>&1
cmp -s "$SMOKE_DIR/ingest-t1/dataset.json" "$SMOKE_DIR/ingest-t4/dataset.json" \
    || { echo "ingest smoke: dataset differs across thread counts" >&2; exit 1; }
cmp -s "$SMOKE_DIR/ingest-t1/quality.json" "$SMOKE_DIR/ingest-t4/quality.json" \
    || { echo "ingest smoke: quality report differs across thread counts" >&2; exit 1; }
cmp -s "$SMOKE_DIR/ingest-t1.out" "$SMOKE_DIR/ingest-t4.out" \
    || { echo "ingest smoke: diagnostics differ across thread counts" >&2; exit 1; }
echo "ingest smoke: threads 1 vs 4 byte-identical"

# Crash-recovery smoke: SIGKILL a checkpointed simulate right after a
# chunk commit (deterministic chaos hook), resume it at a different
# thread count, and require the dataset to be byte-identical to an
# uninterrupted baseline. This is a hard gate: resume identity is the
# checkpoint layer's whole contract.
./target/release/hpcpower simulate --system emmy --seed 7 --nodes 24 \
    --days 2 --users 16 --quiet --threads 2 --out "$SMOKE_DIR/ckpt-base"
set +e
./target/release/hpcpower simulate --system emmy --seed 7 --nodes 24 \
    --days 2 --users 16 --quiet --threads 2 \
    --checkpoint-dir "$SMOKE_DIR/ckpt-run" --chunk-jobs 8 \
    --chaos-kill-after-chunk 1 --out "$SMOKE_DIR/ckpt-victim" 2>/dev/null
rc=$?
set -e
[ "$rc" -ne 0 ] || { echo "resume smoke: victim survived the SIGKILL hook" >&2; exit 1; }
./target/release/hpcpower simulate --resume "$SMOKE_DIR/ckpt-run" \
    --threads 4 --quiet --out "$SMOKE_DIR/ckpt-resumed"
cmp -s "$SMOKE_DIR/ckpt-base/dataset.json" "$SMOKE_DIR/ckpt-resumed/dataset.json" \
    || { echo "resume smoke: resumed dataset differs from the baseline" >&2; exit 1; }
echo "resume smoke: kill -> resume is byte-identical"

# Benchmark output checks: a one-second run of each perfbench workload,
# untraced and traced, must report every op's output correct and no op
# failed. The traced run adds its own checks: the two allocation-
# counting passes agree, the traced chain re-encodes the published
# dataset.json, and the traced sections make up the report. Only the
# checks gate; the timings of so short a run are not inputs.
if command -v python3 >/dev/null 2>&1; then
    for workload in simulate-publish analyze-report predict-query; do
        for trace in 0 1; do
            out="$SMOKE_DIR/bench-$workload-trace$trace.out"
            python3 perfbench/run.py --workload "$workload" --seed 3 --seconds 1 \
                --trace "$trace" > "$out"
            python3 - "$workload --trace $trace" "$out" <<'EOF'
import json, sys
run, path = sys.argv[1], sys.argv[2]
with open(path) as f:
    last = f.read().splitlines()[-1]
r = json.loads(last)
assert r["correct"] is True and r["failed"] == 0, f"{run}: {last}"
print(f"bench check: {run} correct, {r['attempted']} ops, 0 failed")
EOF
        done
    done
else
    echo "bench check: skipped (python3 unavailable)"
fi

echo "tier1: OK"
