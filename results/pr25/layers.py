#!/usr/bin/env python3
"""The ungated pool readouts of one traced run a side: layers.py TRACED_LOG"""
import json
import sys

KEYS = ["run.cpu_us_per_op", "sink.latency_p95_ms", "telemetry.fire_dispatch_ns",
        "pool.steals_per_kfire", "pool.worker_fire_skew"]

rows = {}
for line in open(sys.argv[1]):
    head, _, body = line.partition(": ")
    label, workload, _, seed = head.split()
    rows.setdefault(workload, {})[label] = json.loads(body)
print("| workload | metric (ungated) | parent | change |")
print("|---|---|---|---|")
for workload, sides in rows.items():
    for k in KEYS:
        p, c = sides["parent"].get(k), sides["change"].get(k)
        print(f"| `{workload}` | `{k}` | {p:.4g} | {c:.4g} |")
    print(f"| `{workload}` | reference_hash | {sides['parent']['reference_hash']} | {sides['change']['reference_hash']} |")
    print(f"| `{workload}` | verified | {sides['parent']['failed']} | {sides['change']['failed']} |")
