#!/usr/bin/env python3
"""Host-disk probe: why the benchmark does not time the host's disk.

    python3 perfbench/fsync_probe.py

Run from the root of the checkout. Each of 5 runs appends 2000 4 KB blocks to a
scratch file under .bench_build/, calling fsync after every write, and prints
the median and 99th percentile of one write+fsync pair in microseconds. If
those figures move between runs by more than the bounds an end-to-end metric
may move, a flush commit timed on this disk measures the disk's mood, not
the program; the benchmark then takes device time from the simulated disk.
"""

import os
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "fsync_probe.dat")
RUNS = 5
PAIRS = 2000


def one_run(pairs):
    block = os.urandom(4096)
    samples = []
    fd = os.open(SCRATCH, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for _ in range(pairs):
            start = time.perf_counter_ns()
            os.write(fd, block)
            os.fsync(fd)
            samples.append((time.perf_counter_ns() - start) / 1000)
    finally:
        os.close(fd)
        os.unlink(SCRATCH)
    return statistics.median(samples), statistics.quantiles(samples, n=100)[98]


def main():
    os.makedirs(os.path.dirname(SCRATCH), exist_ok=True)
    for run in range(RUNS):
        p50, p99 = one_run(PAIRS)
        print("run %d: %d write+fsync pairs of 4 KB: p50 %.0f us, p99 %.0f us" %
              (run + 1, PAIRS, p50, p99), flush=True)


if __name__ == "__main__":
    main()
