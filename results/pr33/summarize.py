#!/usr/bin/env python3
"""Markdown table from a pairs.log: median [q1, q3] a side, change vs parent, wins.

usage: summarize.py LOG LABEL_A LABEL_B [metric ...]
"""
import json
import statistics
import sys
from collections import defaultdict

HIGHER = {"run.throughput_per_s"}


def quartiles(xs):
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]


def fmt(x):
    ax = abs(x)
    if ax >= 1000:
        return f"{x:,.0f}"
    if ax >= 10:
        return f"{x:.2f}"
    if ax >= 0.01:
        return f"{x:.4f}" if ax < 1 else f"{x:.3f}"
    return f"{x:.5f}"


def main():
    log, a, b = sys.argv[1:4]
    wanted = sys.argv[4:]
    runs = defaultdict(lambda: defaultdict(dict))  # workload -> seed -> label -> metrics
    for line in open(log):
        head, _, body = line.partition(": ")
        label, workload, _, seed = head.split()
        runs[workload][int(seed)][label] = json.loads(body)
    hashes_differ, failed = [], []
    print("| workload | metric | parent | change | change vs parent | change better in |")
    print("|---|---|---|---|---|---|")
    for workload, seeds in runs.items():
        pairs = [(s[a], s[b]) for s in seeds.values() if a in s and b in s]
        for pa, pb in pairs:
            if pa.get("reference_hash") != pb.get("reference_hash"):
                hashes_differ.append((workload, pa.get("reference_hash"), pb.get("reference_hash")))
            for side in (pa, pb):
                if not side.get("failed", "").startswith("failed 0 of") or side.get("exit") != 0:
                    failed.append((workload, side.get("failed"), side.get("exit")))
        metrics = wanted or [m for m in pairs[0][0] if isinstance(pairs[0][0][m], float) and not m.startswith("noise.")]
        for m in metrics:
            xs = [(pa[m], pb[m]) for pa, pb in pairs if m in pa and m in pb]
            if not xs:
                continue
            qa, qb = quartiles([x for x, _ in xs]), quartiles([y for _, y in xs])
            lower = m not in HIGHER
            wins = sum((y < x) if lower else (y > x) for x, y in xs)
            ties = sum(x == y for x, y in xs)
            delta = (qb[1] / qa[1] - 1) * 100 if qa[1] else 0.0
            tie = f" ({ties} tie{'s' if ties > 1 else ''})" if ties else ""
            print(f"| `{workload}` | `{m}` | {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}] | "
                  f"{fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] | {delta:+.1f}% | {wins}/{len(xs)}{tie} |")
    print()
    print("reference hashes differ:", hashes_differ or "none")
    print("failed runs:", failed or "none")


main()
