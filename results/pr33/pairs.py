#!/usr/bin/env python3
"""Alternating pairs of two builds of the benchmark.

usage: pairs.py LABEL_A=DIR_A LABEL_B=DIR_B --workloads w1,w2 --seeds 1-10
                [--seconds 24] [--trace 0] --out LOG

One line per run: `<label> <workload> seed <n>: {json}`; the side that runs
first alternates from seed to seed.
"""
import json
import re
import subprocess
import sys


def parse(argv):
    sides, opts = [], {"--seconds": "24", "--trace": "0"}
    it = iter(argv)
    for a in it:
        if a.startswith("--"):
            opts[a] = next(it)
        else:
            label, path = a.split("=", 1)
            sides.append((label, path))
    lo, _, hi = opts["--seeds"].partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    return sides, opts["--workloads"].split(","), seeds, opts["--seconds"], opts["--trace"], opts["--out"]


METRIC = re.compile(r"^\s+([A-Za-z_][\w.]*)\s+(-?[\d.]+(?:e-?\d+)?)\s")


def run(path, workload, seed, seconds, trace):
    cmd = ["./benchmark/target/release/confluence-benchmark", "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", trace]
    p = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    out = {}
    lines = p.stdout.strip().splitlines()
    for line in lines:
        m = METRIC.match(line)
        if m:  # every printed metric, gated or not, traced layers included
            out[m.group(1)] = float(m.group(2))
        if line.startswith("DETAIL "):
            out["reference_hash"] = json.loads(line[len("DETAIL "):]).get("reference_hash")
        if re.match(r"failed \d+ of \d+", line):
            out["failed"] = line
    try:
        for name, m in json.loads(lines[-1])["metrics"].items():
            out[name] = m["value"]
    except Exception as e:  # noqa: BLE001
        out["parse_error"] = repr(e)
    out["exit"] = p.returncode
    return out


def main():
    sides, workloads, seeds, seconds, trace, log = parse(sys.argv[1:])
    with open(log, "a") as f:
        for seed in seeds:
            for workload in workloads:
                order = sides if seed % 2 else sides[::-1]
                for label, path in order:
                    r = run(path, workload, seed, seconds, trace)
                    line = f"{label} {workload} seed {seed}: {json.dumps(r)}"
                    print(line, flush=True)
                    f.write(line + "\n")
                    f.flush()


main()
