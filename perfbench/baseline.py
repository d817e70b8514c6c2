#!/usr/bin/env python3
"""Record the benchmark's baseline on this host.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads paper_qd,...]

Run from the root of a checkout. It makes two sets of runs of
`perfbench/run.py`, one after the other: in each set, every workload once
per seed untraced. Then it runs each workload once traced (first seed)
and writes perfbench/baseline.json: the host fingerprint, and per
workload and set the median and quartiles of every end-to-end metric with
its spread (interquartile range / median, the figure BENCHMARK.json's
bounds are set against), how much worse the second set's median is than
the first's (as a share of the first; negative is better), and the traced
run's per-layer values.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

OUT = os.path.join(HERE, "baseline.json")


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed with exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host():
    compiler, build_type = "", ""
    cache = os.path.join(run.BUILD_DIR, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                compiler = subprocess.run(
                    [path, "--version"], stdout=subprocess.PIPE,
                    text=True).stdout.splitlines()[0]
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    cpu = platform.processor()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "build_type": build_type, "python": platform.python_version()}


def main():
    with open(run.UNITS_FILE) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    specs = {m["name"]: m for m in spec["end_to_end"]}

    def summarize(values):
        out = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            out[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "bound": specs[name]["bound"]}
        return out

    def worse_by(name, first, second):
        if first == 0:
            return 0.0
        change = (second - first) / first
        return change if specs[name]["better"] == "lower" else -change

    names = args.workloads.split(",")
    sets = []
    for _ in range(2):
        values = {w: {} for w in names}
        for workload in names:
            for seed in args.seeds:
                result = run_once(workload, seed, seconds, 0)
                print(workload, seed, {k: round(v["value"], 6)
                                       for k, v in result["metrics"].items()},
                      file=sys.stderr)
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(
                        metric["value"])
        sets.append({w: summarize(values[w]) for w in names})

    workloads = {}
    for workload in names:
        first, second = (s[workload] for s in sets)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        workloads[workload] = {
            "seeds": args.seeds,
            "end_to_end": [first, second],
            "second_worse_by": {
                name: worse_by(name, first[name]["median"],
                               second[name]["median"])
                for name in first},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(OUT, "w") as f:
        json.dump({"host": host(), "run_seconds": seconds,
                   "workloads": workloads}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
