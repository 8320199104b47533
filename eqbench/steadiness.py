#!/usr/bin/env python3
"""Runs one workload N times with consecutive seeds and prints, per metric,
the median, the quartiles, the quartile spread as a share of the median and
the max/min ratio. The bounds in BENCHMARK.json are set from this output.

    python3 eqbench/steadiness.py --workload rings --runs 10 --first-seed 1
    python3 eqbench/steadiness.py --workload all --runs 10 --seconds 10

Quartiles are Python's statistics.quantiles(values, n=4). Each run's share
of failed operations is printed too; it must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["flights", "rings", "churn", "cluster_rings"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (out.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def report(workload, results):
    print("## %s (%d runs)" % (workload, len(results)))
    shares = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in results})
    print("correct: %s; failed/attempted per run: %s" %
          (all(r["correct"] for r in results), ", ".join(shares)))
    print("| metric | unit | median | q1 | q3 | (q3-q1)/median | max/min |")
    print("|---|---|---|---|---|---|---|")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        ratio = max(values) / min(values) if min(values) > 0 else float("nan")
        print("| %s | %s | %.6g | %.6g | %.6g | %.3f | %.3f |" %
              (name, first["unit"], med, q1, q3, spread, ratio))
    print()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.runs < 2:
        p.error("--runs must be at least 2")
    for workload in WORKLOADS if a.workload == "all" else [a.workload]:
        results = [run_once(workload, a.first_seed + i, a.seconds, a.trace)
                   for i in range(a.runs)]
        report(workload, results)


if __name__ == "__main__":
    main()
