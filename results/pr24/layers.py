#!/usr/bin/env python3
"""The layer table of one traced run a side: layers.py TRACED_LOG > layers.txt"""
import json
import sys

KEYS = ["relstore.in_union_ns", "relstore.plan_ns", "relstore.lav_range_ns",
        "actor.AccidentNotification.busy_share", "actor.TollCalculation.busy_share",
        "actor.StoppedCarDetection.busy_share", "actor.source.busy_share",
        "actor.InsertAccident.fires_per_op", "sched.self_share",
        "alloc.count_per_op", "alloc.bytes_per_op", "run.cpu_us_per_op", "trace.overhead_share"]

rows = {}
for line in open(sys.argv[1]):
    head, _, body = line.partition(": ")
    label, workload, _, seed = head.split()
    rows.setdefault(workload, {})[label] = json.loads(body)
print("| workload | metric | parent | change |")
print("|---|---|---|---|")
for workload, sides in rows.items():
    for k in KEYS:
        p, c = sides["parent"].get(k), sides["change"].get(k)
        if p is None and c is None:
            continue
        print(f"| `{workload}` | `{k}` | {p:.4g} | {c:.4g} |")
    print(f"| `{workload}` | reference_hash | {sides['parent']['reference_hash']} | {sides['change']['reference_hash']} |")
    print(f"| `{workload}` | verified | {sides['parent']['failed']} | {sides['change']['failed']} |")
