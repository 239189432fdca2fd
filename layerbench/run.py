#!/usr/bin/env python3
"""Build the program and the layered benchmark from source, then run one workload.

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 layerbench/run.py --test

Run from the root of a checkout. The program and the benchmark are built into
.bench_build (Release) from the checkout's own sources; build output goes to
standard error. The last line of standard output is the result JSON that the
layerbench binary prints. --test builds and runs the benchmark's own tests.
See layerbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-churn", "cold-deploy", "traffic-serial")


def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("layerbench: build failed: " + " ".join(step))


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    # Only this checkout's own repository counts, not an enclosing one.
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return "unknown"
    return top[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.test:
        build(["layerbench_test"])
        return subprocess.run([os.path.join(BUILD, "layerbench_test")]).returncode

    build(["layerbench"])
    work = os.path.join(BUILD, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        command = [os.path.join(BUILD, "layerbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", work, "--git-sha", git_sha()]
        return subprocess.run(command, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
