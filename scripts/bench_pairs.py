#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark declared in BENCHMARK.json.

usage: bench_pairs.py PARENT_DIR CHANGE_DIR --workloads w1,w2 --seeds 1-10
                      [--trace 0|1] [--out LOG] [--note TEXT]

PARENT_DIR and CHANGE_DIR are two checkouts whose benchmark is already built
(`cargo build --release --offline --manifest-path benchmark/Cargo.toml` in
each). Every (seed, workload) runs once a side with the command of that
checkout's BENCHMARK.json, for the change's `run_seconds` and with the given
`--trace` (default 0, untraced, as the benchmark's own `collect` runs; 1
adds the traced-only readouts); odd seeds run the parent first, even seeds
the change. Each run is read from its last line (the result object) and its
DETAIL line (reference hash, ungated readouts).

For every workload and end-to-end metric the summary gives the median parent
-> change, both sides' quartiles (Python's default exclusive rule, which
benchmark/src/stats.rs reproduces), in how many pairs the change is better,
and the worst pair; then the same, ungated, for every per-layer readout of
BENCHMARK.json that both sides carry as a number (in DETAIL, or in a traced
run's result); then, ungated, each side's median over runs of the run's
largest unit peak (`peak_rss_mb` is the least unit's, so a peak claim shows
there that every unit moved); then whether every run was correct, how many
operations failed, and whether each pair's reference hashes are equal. With
--out the summary and one raw line per run are written to LOG; raw lines go to stderr
as the runs finish.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout, workload, seed, seconds, trace):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": None, "metrics": {}}
    detail = next((json.loads(l[len("DETAIL "):]) for l in lines if l.startswith("DETAIL ")), {})
    result["exit"] = p.returncode
    return result, detail


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def readout(run, name):
    """One run's per-layer readout as a float: its DETAIL entry, else (a traced
    run) its result's metric; None when neither is a number."""
    result, detail = run
    try:
        return float(detail.get(name, result["metrics"].get(name, {}).get("value")))
    except (TypeError, ValueError):
        return None


def compare(label, xs, shown, lower):
    """One summary line over (parent, change) pairs of one metric."""
    pq, cq = quartiles([a for a, _ in xs]), quartiles([b for _, b in xs])
    better = sum((b < a) if lower else (b > a) for a, b in xs)
    deltas = [(b / a - 1) * 100 if a else 0.0 for a, b in xs]
    worst = max(deltas) if lower else min(deltas)
    change = f"{(cq[1] / pq[1] - 1) * 100:+.1f}%; " if pq[1] else ""
    if pq[1] and cq[1]:
        change += f"ratio {pq[1] / cq[1] if lower else cq[1] / pq[1]:.2f}x; "
    return (f"{label}: {pq[1]:.3f} -> {cq[1]:.3f} {shown} ({change}parent q1/q3 {pq[0]:.3f}/{pq[2]:.3f} "
            f"IQR {pq[2] - pq[0]:.3f}; change q1/q3 {cq[0]:.3f}/{cq[2]:.3f}; change "
            f"{'lower' if lower else 'higher'} in {better}/{len(xs)} pairs; worst pair {worst:+.1f}%)")


def summarize(runs, metrics, per_layer=(), labels=("parent", "change")):
    """runs: {workload: {seed: {side: (result, detail)}}} -> summary lines."""
    out = []
    for workload, by_seed in runs.items():
        pairs = [(s[labels[0]], s[labels[1]]) for s in by_seed.values() if len(s) == 2]
        for m in metrics:
            name, unit, lower = m["name"], m["unit"], m["better"] == "lower"
            scale, shown = (1000.0, "ms") if unit == "s" else (1.0, unit)
            xs = [(a[0]["metrics"][name]["value"] * scale, b[0]["metrics"][name]["value"] * scale)
                  for a, b in pairs if name in a[0]["metrics"] and name in b[0]["metrics"]]
            if xs:
                out.append(compare(f"{workload} {name}", xs, shown, lower))
        for m in per_layer:
            name = m["name"]
            xs = [(readout(a, name), readout(b, name)) for a, b in pairs]
            xs = [(a, b) for a, b in xs if a is not None and b is not None]
            if xs:
                out.append(compare(f"{workload} {name} (ungated)", xs, m["unit"], m["better"] == "lower"))
        # Each side's largest unit peak per run: `peak_rss_mb` is the least.
        tops = [[max(d["unit_peak_rss_mb"]) for _, d in side if d.get("unit_peak_rss_mb")]
                for side in zip(*pairs)]
        if tops and all(tops):
            pm, cm = (statistics.median(t) for t in tops)
            out.append(f"{workload} largest unit_peak_rss_mb (ungated): {pm:.1f} -> {cm:.1f} MB "
                       f"({(cm / pm - 1) * 100:+.1f}%)")
        sides = [side for pair in pairs for side in pair]
        correct = all(r["correct"] and r["exit"] == 0 for r, _ in sides)
        failed = sum(r["failed"] or 0 for r, _ in sides)
        hashes = all(a[1].get("reference_hash") is not None
                     and a[1].get("reference_hash") == b[1].get("reference_hash") for a, b in pairs)
        out.append(f"{workload}: {len(pairs)} pairs; all runs correct: {correct}; failed operations: {failed}; "
                   f"reference hashes equal in every pair: {hashes}")
    return out


def raw_line(workload, seed, side, result, detail):
    shown = {k: result[k] for k in ("correct", "attempted", "failed", "metrics") if k in result}
    return f"{workload} seed={seed} {side} hash={detail.get('reference_hash')} {json.dumps(shown)} DETAIL {json.dumps(detail)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--note", default="")
    a = ap.parse_args()
    with open(os.path.join(a.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    sides = [("parent", a.parent), ("change", a.change)]
    runs, raw = {}, []
    for workload in a.workloads.split(","):
        for seed in a.seeds:
            for label, checkout in sides if seed % 2 else sides[::-1]:
                result, detail = run(checkout, workload, seed, seconds, a.trace)
                runs.setdefault(workload, {}).setdefault(seed, {})[label] = (result, detail)
                raw.append(raw_line(workload, seed, label, result, detail))
                print(raw[-1], file=sys.stderr, flush=True)
    bounds = ", ".join(f"{m['name']} {m['bound'] * 100:g}%" for m in metrics)
    header = [
        f"# {len(a.seeds)} alternating parent/change pairs per workload (seeds {a.seeds[0]}-{a.seeds[-1]}, "
        f"--seconds {seconds}, --trace {a.trace}; odd seeds run the parent first). {a.note}".rstrip(),
        f"# median parent -> change; bounds: {bounds}.",
    ]
    text = header + summarize(runs, metrics, bench["per_layer"]) + ["", "# raw: workload seed side reference_hash last-JSON-line DETAIL-line"] + raw
    print("\n".join(text[: len(text) - len(raw) - 2]))
    if a.out:
        with open(a.out, "w") as f:
            f.write("\n".join(text) + "\n")


if __name__ == "__main__":
    main()
