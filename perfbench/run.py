#!/usr/bin/env python3
"""Journey benchmark of fresh one-thread `hpcpower` processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-report --seed 3 --seconds 25 --trace 0

It builds the release `hpcpower` binary and the `perfbench` helper
package from source, sets up the run's traces and their reference
outputs, then runs ops in a closed loop for `--seconds`: one fresh
`hpcpower` process at a time, each checked against its reference.
With `--trace 1` the helper then re-executes the journeys in-process
and reports the per-layer decomposition. The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, the metric
names and units taken from BENCHMARK.json. perfbench/README.md records
the design.

This process stays small and single-threaded on purpose: a child's
`ru_maxrss` includes the peak resident set of the process that spawned
it, so every heavy step (set-up, references, the traced run) runs in a
helper process instead of here.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("simulate-publish", "analyze-report", "predict-query")

# The ROADMAP reference trace shape; the seed comes from the run.
TRACE_FLAGS = ["--system", "emmy", "--nodes", "160", "--days", "45", "--users", "60"]

# Traces per run. A trace's cost depends on its seed (its job count
# ranges from 8k to 19k), so each run spreads its ops over several
# traces derived from --seed; the median op then varies less from one
# seed to the next. analyze-report, whose KNN cost grows fastest with
# the job count, needs the most; predict-query's peak RSS follows the
# decoded trace's size.
TRACES = {"simulate-publish": 4, "analyze-report": 10, "predict-query": 6}

ARTIFACTS = ["jobs.csv", "system.csv", "dataset.json"]
ARTIFACT_FILES = sorted(ARTIFACTS + [name + ".manifest.json" for name in ARTIFACTS])

SCRATCH = ".perfbench_scratch"
OP_DIR = os.path.join(SCRATCH, "op")
OP_STDOUT = os.path.join(SCRATCH, "op.stdout")
OP_STDERR = os.path.join(SCRATCH, "op.stderr")

OP_TIMEOUT_S = 60
HELPER_TIMEOUT_S = 150
CHUNK = 1 << 20

WATTS = re.compile(rb"^predicted per-node power: (\S+) W", re.MULTILINE)


class BenchError(Exception):
    """Anything that stops the run from producing a result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target_dir):
    """Builds the CLI and the helper; returns their paths."""
    for extra in (["-p", "hpcpower-cli"], ["--manifest-path", "perfbench/Cargo.toml"]):
        argv = ["cargo", "build", "--release", "--offline", "--quiet",
                "--target-dir", target_dir] + extra
        if subprocess.run(argv, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(argv))
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "hpcpower"), os.path.join(release, "perfbench")


def helper(argv):
    """Runs the helper and returns the JSON object it prints."""
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, timeout=HELPER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} took longer than {HELPER_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"{argv[1]} exited with code {done.returncode}")
    return json.loads(done.stdout)


def spawn(argv):
    """Runs one op; returns (exit code, wall s, cpu s, peak RSS KiB).

    Wall time runs from spawn to reap. CPU time and peak RSS come from
    the `wait4` accounting of that one child.
    """
    def expire(signum, frame):
        raise TimeoutError

    with open(OP_STDOUT, "wb") as out, open(OP_STDERR, "wb") as err:
        previous = signal.signal(signal.SIGALRM, expire)
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        reaped = None
        try:
            reaped = os.wait4(proc.pid, 0)
        except TimeoutError:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - started
        if reaped is None:
            proc.kill()
            reaped = os.wait4(proc.pid, 0)
            log(f"op timed out after {OP_TIMEOUT_S} s: {' '.join(argv)}")
    _, status, usage = reaped
    # Tell Popen the child is reaped, so it never waits on a reused pid.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def same_file(path, reference, flip_at=None):
    """Whether `path` holds the bytes of `reference`, compared a chunk at
    a time; `flip_at` flips one bit of the reference at that offset."""
    try:
        with open(path, "rb") as a, open(reference, "rb") as b:
            offset = 0
            while True:
                x, y = a.read(CHUNK), b.read(CHUNK)
                if flip_at is not None and offset <= flip_at < offset + len(y):
                    i = flip_at - offset
                    y = y[:i] + bytes([y[i] ^ 1]) + y[i + 1:]
                if x != y:
                    return False
                if not x:
                    return True
                offset += len(y)
    except OSError:
        return False


def midpoint(path):
    return os.path.getsize(path) // 2


class SimulatePublish:
    """`hpcpower simulate` of trace k into a fresh directory; the three
    artifacts and their manifests must match set-up's bytes."""

    def __init__(self, hpcpower, traces):
        self.hpcpower, self.traces = hpcpower, traces

    def prepare(self, i):
        seed, trace_dir = self.traces[i % len(self.traces)]
        shutil.rmtree(OP_DIR, ignore_errors=True)
        argv = [self.hpcpower, "simulate"] + TRACE_FLAGS + [
            "--seed", seed, "--out", OP_DIR, "--quiet", "--threads", "1"]
        return argv, trace_dir

    def check(self, trace_dir, flip=False):
        if not os.path.isdir(OP_DIR) or sorted(os.listdir(OP_DIR)) != ARTIFACT_FILES:
            return False
        for name in ARTIFACT_FILES:
            reference = os.path.join(trace_dir, name)
            flip_at = midpoint(reference) if flip and name == "dataset.json" else None
            if not same_file(os.path.join(OP_DIR, name), reference, flip_at):
                return False
        return True


class AnalyzeReport:
    """`hpcpower analyze` of trace k; stdout must match set-up's
    `render_full`."""

    def __init__(self, hpcpower, traces):
        self.hpcpower, self.traces = hpcpower, traces

    def prepare(self, i):
        _, trace_dir = self.traces[i % len(self.traces)]
        argv = [self.hpcpower, "analyze", "--data", os.path.join(trace_dir, "dataset.json"),
                "--threads", "1"]
        return argv, os.path.join(trace_dir, "report.txt")

    def check(self, reference, flip=False):
        return same_file(OP_STDOUT, reference, midpoint(reference) if flip else None)


class PredictQuery:
    """`hpcpower predict` of query j on trace k; the printed watts must
    match set-up's in-process prediction."""

    def __init__(self, hpcpower, traces):
        self.hpcpower, self.traces = hpcpower, traces
        self.queries = []
        for _, trace_dir in traces:
            with open(os.path.join(trace_dir, "queries.tsv")) as f:
                self.queries.append([line.split("\t") for line in f.read().splitlines()])

    def prepare(self, i):
        k = i % len(self.traces)
        user, nodes, walltime_h, watts = self.queries[k][(i // len(self.traces)) % len(self.queries[k])]
        argv = [self.hpcpower, "predict", "--data",
                os.path.join(self.traces[k][1], "dataset.json"),
                "--user", user, "--nodes", nodes, "--walltime-h", walltime_h, "--threads", "1"]
        return argv, watts

    def check(self, watts, flip=False):
        expected = watts.encode()
        if flip:
            expected = expected[:-1] + bytes([expected[-1] ^ 1])
        with open(OP_STDOUT, "rb") as f:
            printed = WATTS.search(f.read())
        return printed is not None and printed.group(1) == expected


WORKLOAD_CLASSES = {
    "simulate-publish": SimulatePublish,
    "analyze-report": AnalyzeReport,
    "predict-query": PredictQuery,
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(args, spec):
    hpcpower, perfbench = build(os.environ.get("CARGO_TARGET_DIR") or "target")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    # The traced run decomposes ops on the run's first trace only.
    n_traces = 1 if args.trace else TRACES[args.workload]
    setup = helper([perfbench, "setup", "--workload", args.workload, "--seed", str(args.seed),
                    "--traces", str(n_traces), "--dir", SCRATCH])
    traces = [(seed, os.path.join(SCRATCH, f"trace-{k}")) for k, seed in enumerate(setup["seeds"])]
    workload = WORKLOAD_CLASSES[args.workload](hpcpower, traces)

    walls, cpus, rss_kib, failed = [], [], [], 0
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        argv, expected = workload.prepare(len(walls))
        code, wall, cpu, rss = spawn(argv)
        walls.append(wall)
        cpus.append(cpu)
        rss_kib.append(rss)
        if code != 0 or not workload.check(expected):
            failed += 1
            if failed == 1:
                log(f"op failed (exit code {code}): {' '.join(argv)}")
    # Negative self-test: the last op's output against a reference with
    # one bit flipped must fail, or the checker cannot see a wrong byte.
    self_test_ok = not workload.check(expected, flip=True)
    if not self_test_ok:
        log("self-test: a flipped reference byte went unnoticed")
    q1, q3 = quartiles(walls)
    log(f"{args.workload} seed {args.seed}: {len(walls)} ops over {n_traces} trace(s), "
        f"{failed} failed; wall median {statistics.median(walls):.4f} s "
        f"(quartiles {q1:.4f}, {q3:.4f}); set-up {setup['setup_s']}")

    correct = failed == 0 and self_test_ok
    if args.trace:
        published = (os.path.join(OP_DIR, "dataset.json") if args.workload == "simulate-publish"
                     else os.path.join(traces[0][1], "dataset.json"))
        argv = [perfbench, "trace", "--workload", args.workload, "--seed", str(args.seed),
                "--dir", SCRATCH, "--published", published]
        if args.workload == "analyze-report":
            argv += ["--report", OP_STDOUT]
        traced = helper(argv)
        for failure in traced["failures"]:
            log(f"traced run: {failure}")
        correct = correct and not traced["failures"]
        values = dict(traced["metrics"])
        # Process start and exit, argument parsing, stdout and teardown:
        # whatever the timed layers do not cover.
        values["residual_s"] = statistics.median(walls) - traced["journey_s"][args.workload]
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup["setup_s"]),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss_kib) / 1024,
        }
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError("no value for " + ", ".join(missing))
    return {
        "correct": correct,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not all(os.path.isfile(p) for p in ("BENCHMARK.json", "Cargo.toml", "crates/cli/Cargo.toml")):
        log("run from the root of an hpc-power checkout (BENCHMARK.json, Cargo.toml, crates/cli)")
        sys.exit(2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    try:
        result = run(args, spec)
    except BenchError as e:
        log(str(e))
        sys.exit(1)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
