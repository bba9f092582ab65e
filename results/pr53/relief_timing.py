#!/usr/bin/env python3
"""Time the two Parks-relief tests of `tests/backpressure.rs`, one process per run.

Usage: relief_timing.py BACKPRESSURE_TEST_BINARY [RUNS]

Build the binary with `cargo test --release --test backpressure --no-run` and
pass the path cargo prints. Each run executes one test alone (`--exact`); the
wall time includes process start, which the `(no test)` row measures.
"""
import statistics
import subprocess
import sys
import time

binary = sys.argv[1]
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
tests = [
    "artificial_deadlock_relieved_by_queue_growth",
    "artificial_deadlock_relieved_under_pool",
    "(no test)",
]
for test in tests:
    args = [binary, "--exact", "--test-threads", "1"]
    args += ["no_such_test"] if test == "(no test)" else [test]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        out = subprocess.run(args, capture_output=True, text=True)
        times.append((time.perf_counter() - start) * 1000)
        if out.returncode != 0:
            sys.exit(f"{test} failed:\n{out.stdout}{out.stderr}")
    print(f"{test:48} median {statistics.median(times):8.1f} ms  "
          f"min {min(times):8.1f}  max {max(times):8.1f}  ({runs} runs)")
