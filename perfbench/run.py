#!/usr/bin/env python3
"""Builds the ringjoin benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_mix|u300k_join|live_churn|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
the library and the perfbench program into .bench_build/perfbench
(Release); later runs only re-check the build. Build output goes to stderr, so the last
line of standard output is perfbench's result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. `--workload all` runs the three
workloads one after the other. The exit code is 0 only when every stream
matched its oracle.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-results")
WAL_DIR = os.path.join(ROOT, ".bench_build", "perfbench-wal")
WORKLOADS = ["serve_mix", "u300k_join", "live_churn"]
# A run must end within 180 s; perfbench is stopped a little before that.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runner.h")):
        fail("the ringjoin sources (src/) are missing next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as error:
            fail("cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(BUILD_DIR, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("the build produced no perfbench binary")
    return binary


def run(binary, workload, args):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RESULTS_DIR, "--wal-dir", WAL_DIR]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds positive")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for workload in workloads:
        worst = max(worst, run(binary, workload, args))
    sys.exit(worst)


if __name__ == "__main__":
    main()
