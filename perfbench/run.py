#!/usr/bin/env python3
"""The qens benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload paper_qd --seed 1 --seconds 20 --trace 0

Run from the root of a qens checkout. It builds the workload driver
(perfbench/CMakeLists.txt, which compiles the checkout's own src/) into
.bench_build/perfbench, runs the named workload in its own process, checks
its outputs, and prints one JSON line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Any failed output check ends the run with exit code 1 and no metrics.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import summary  # noqa: E402

WORKLOADS = ("paper_qd", "fleet_scan", "serve_mixed")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
UNITS_FILE = os.path.join(HERE, "..", "BENCHMARK.json")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure once, then build incrementally; serialized by a lock so
    concurrent runs in one checkout never race the build tree."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no qens sources (src/CMakeLists.txt) in the current directory")
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.relpath(HERE, root),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "qens_perf",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, cwd=root, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "qens_perf")


def run_workload(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no record (exit {done.returncode})")
    raw = json.loads(lines[-1])
    if raw["failures"] or done.returncode != 0:
        for failure in raw["failures"][:20]:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
        fail(f"{args.workload}: output checks failed "
             f"(exit {done.returncode}); no metrics reported")
    return raw


def declared_metrics(trace):
    with open(UNITS_FILE) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build(os.getcwd())
    raw = run_workload(binary, args)
    try:
        values = (summary.per_layer(raw) if args.trace
                  else summary.end_to_end(raw))
    except (summary.SummaryError, KeyError, ZeroDivisionError) as e:
        fail(f"{args.workload}: cannot summarize: {e!r}")

    metrics = {}
    for spec in declared_metrics(args.trace):
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            fail(f"{args.workload}: metric {spec['name']} is {value}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    # `failed` counts requests the system did not serve (shed or
    # rejected; an error fails the run). Policy-skipped queries, which have
    # no held-out rows in their region, are answered_frac's business.
    s = raw["scalars"]
    print(json.dumps({"correct": True, "attempted": int(s["attempted"]),
                      "failed": int(s.get("unserved", 0)),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
