#!/usr/bin/env python3
"""The ungated checkpoint readouts of the traced runs: layers.py TRACED_LOG

One column a side: the median over seeds and, in brackets, the lowest and
highest run (the parent's range is its spread)."""
import json
import statistics
import sys

KEYS = ["checkpoint.snapshot_bytes", "checkpoint.write_ns", "checkpoint.read_decode_ns",
        "checkpoint.recover_ms", "checkpoint.encode_ns", "checkpoint.capture_ns", "checkpoint.restore_ns",
        "checkpoint.log_record_ns", "checkpoint.log_bytes_per_op", "checkpoint.replayed_events",
        "alloc.bytes_per_op", "alloc.count_per_op", "run.cpu_us_per_op"]

runs = {}  # workload -> label -> [metrics per seed]
for line in open(sys.argv[1]):
    head, _, body = line.partition(": ")
    label, workload, _, seed = head.split()
    runs.setdefault(workload, {}).setdefault(label, []).append(json.loads(body))


def cell(xs):
    return f"{statistics.median(xs):.4g} [{min(xs):.4g}, {max(xs):.4g}]"


print("| workload | metric (ungated) | parent | change |")
print("|---|---|---|---|")
for workload, sides in runs.items():
    n = len(sides["parent"])
    for k in KEYS:
        p = [r[k] for r in sides["parent"] if k in r]
        c = [r[k] for r in sides["change"] if k in r]
        if p and c:
            print(f"| `{workload}` | `{k}` | {cell(p)} | {cell(c)} |")
    for k in ("reference_hash", "failed"):
        p = sorted({r[k] for r in sides["parent"]})
        c = sorted({r[k] for r in sides["change"]})
        print(f"| `{workload}` | {k} ({n} runs a side) | {', '.join(p)} | {', '.join(c)} |")
