#!/usr/bin/env python3
"""Builds the eqbench program from this checkout's sources and runs it.

    python3 eqbench/run.py --workload rings --seed 1 --seconds 10 --trace 0
    python3 eqbench/run.py --selftest

Every argument goes to the program, which rejects unknown flags and workload
names with its usage and a non-zero exit. The build lives in
$CARGO_TARGET_DIR/eqbench (default .bench_build/eqbench) under the current
directory. Build output goes to standard error, so the last line of standard
output stays the program's JSON result. A traced run (--trace 1) also writes
its spans, one JSON object per line, next to the build.
"""

import os
import subprocess
import sys


def build(source, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print("eqbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return rc
    return 0


def flag_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    source = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "eqbench")
    rc = build(source, build_dir)
    if rc != 0:
        return rc
    args = sys.argv[1:]
    workload = flag_value(args, "--workload")
    if flag_value(args, "--trace") == "1" and workload and "--spans-out" not in args:
        seed = flag_value(args, "--seed") or "1"
        args += ["--spans-out",
                 os.path.join(build_dir, "spans-%s-seed%s.jsonl" % (workload, seed))]
    return subprocess.run([os.path.join(build_dir, "eqbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
