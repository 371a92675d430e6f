#!/usr/bin/env python3
"""Builds the benchmark from the sources of this checkout and runs it.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the checkout. Each workload runs in a process of its
own, so that a process-wide figure such as peak_rss_mb belongs to it alone;
`all` runs every workload in turn, each for --seconds, and prefixes each
metric of the merged result with the workload's name. The build goes to .bench_build/perfbench
(configured once, then brought up to date on every call); build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. A traced run also writes its spans to
.bench_build/traces/<workload>-seed<N>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["tpca_flush", "coda_noflush", "crash_restart"]
# A run measures for --seconds plus its last round, set-up and restart.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at %s/src; run from a checkout of "
                 "the repository" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("run.py: build failed: %s" % error)

    if args.self_test:
        sys.exit(run([BINARY, "--self-test"]).returncode)
    if args.workload != "all":
        sys.exit(run(workload_command(args, args.workload)).returncode)

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run(workload_command(args, workload), capture=True)
        sys.stdout.write(result.stdout)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            sys.exit("run.py: %s exited with %d" % (workload, result.returncode))
        one = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))


def workload_command(args, workload):
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.jsonl" % (workload, args.seed))]
    return command


def run(command, capture=False):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark did not finish within %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
