#!/usr/bin/env python3
"""Steadiness tool: repeats the benchmark and sets the bounds from its spread.

    python3 perfbench/steady.py [--seeds 10] [--workloads tpca_flush,...]
                                [--write-bounds]

Run from the root of the checkout. For each workload it runs
`python3 perfbench/run.py` once per seed 1..--seeds (untraced, for the
run length in BENCHMARK.json), then prints, for each
end-to-end metric, the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. It also prints each
workload's share of failed operations.

--write-bounds rewrites each end-to-end bound in BENCHMARK.json as four times
the largest spread seen on any workload, rounded up to a hundredth, with a
floor of 0.20 for figures on the host clock (they also drift with the load on
the machine between two sets of runs) and 0.05 for the rest, and at most
0.25. setup_s always gets 0.25, the largest bound. A metric whose spread
exceeds a third of its bound, setup_s included, is reported as unsteady and
the tool exits with 1; its workload must be made steadier or dropped.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MAX_BOUND = 0.25


def is_host_clock(name):
    return "_host" in name or name == "setup_s"


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit("steady.py: %s seed %d failed (exit %d):\n%s" %
                 (workload, seed, result.returncode, result.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else math.inf


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--write-bounds", action="store_true")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]

    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, seconds)
            runs[workload].append(result)
            print("%-14s seed %-3d correct=%s attempted=%d failed=%d" %
                  (workload, seed, result["correct"], result["attempted"],
                   result["failed"]), flush=True)

    worst = {}
    ok = True
    for workload, results in runs.items():
        print("\n%s: %d runs" % (workload, len(results)))
        if not all(r["correct"] for r in results):
            print("  a run reported correct=false")
            ok = False
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("  failed share of attempted: %s" % shares)
        if len(shares) > 1:
            print("  the failed share differs between runs")
            ok = False
        print("  %-28s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                             "spread"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            worst[name] = max(worst.get(name, 0), share)
            flag = "" if share <= metric["bound"] / 3 else "  > bound/3"
            if len(set(values)) == 1:
                flag += "  same on every run"
                ok = False
            print("  %-28s %14.6g %14.6g %14.6g %8.4f%s" %
                  (name, median, q1, q3, share, flag))

    print("\nbounds (largest spread over workloads -> bound):")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name == "setup_s":
            bound = MAX_BOUND
        else:
            floor = 0.20 if is_host_clock(name) else 0.05
            bound = min(MAX_BOUND, max(floor, math.ceil(4 * worst[name] * 100) / 100))
        steady = worst[name] <= bound / 3
        ok = ok and steady
        print("  %-28s spread %.4f  bound %.2f (was %.2f)%s" %
              (name, worst[name], bound, metric["bound"],
               "" if steady else "  UNSTEADY"))
        metric["bound"] = bound
    if args.write_bounds:
        text = json.dumps(spec, indent=2)
        with open(SPEC, "w") as f:
            f.write(text + "\n")
        print("wrote %s" % SPEC)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
