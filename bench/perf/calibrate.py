#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise each metric's spread.

Usage (from the repository root, after `dune build`):

    python3 bench/perf/calibrate.py --runs 10 --out bench/perf/baseline/set-a.json

For every seed 1..runs it runs perf.exe once
per workload in BENCHMARK.json, untraced, workloads interleaved so that a
slow stretch of the host spreads over all of them, and records each
end-to-end metric's values, median, quartiles and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)).  A run that
fails its output checks or exits non-zero stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

PERF = "./_build/default/bench/perf/perf.exe"


def run(workload, seed, seconds):
    start = time.time()
    out = subprocess.run(
        [PERF, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return result, time.time() - start


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seeds = list(range(1, args.runs + 1))
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, wall = run(w, seed, spec["run_seconds"])
            walls[w].append(wall)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in workloads:
        report["workloads"][w] = {
            "process_wall_s": summary(walls[w]),
            "metrics": {n: summary(v) for n, v in values[w].items()},
        }
        for n, s in report["workloads"][w]["metrics"].items():
            print(f"{w:15s} {n:12s} median {s['median']:14.6g}"
                  f"  iqr/median {100 * s['iqr_share']:6.2f}%")
        print(f"{w:15s} process wall median {statistics.median(walls[w]):.1f}s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
