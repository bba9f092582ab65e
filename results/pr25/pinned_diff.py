#!/usr/bin/env python3
"""PR 25's pinned outputs move only by the deleted `adapt` content.

usage: pinned_diff.py PARENT_QUICK_DIR CHANGE_QUICK_DIR [PARENT_REV]
  (run from the repo root; PARENT_REV defaults to cb65ba3; each QUICK_DIR
   holds `experiments --quick --fig5 --fig6 --fig7 --fig8 --csv DIR` output
   of that side's build)

For each pinned output, the working tree must equal the parent's file with
its adapt content removed and nothing else:
  - the metrics goldens: snapshot.json without its "adapt" member,
    metrics.prom without its confluence_adapt_* lines, table.txt without
    its `adapt:` row;
  - results/csv/fig5_actor_metrics.json (full scale) without its "adapt"
    member, and the same for the two quick-mode fig5 JSONs;
  - results/csv/quick.sha256 with only the fig5 JSON line rewritten, to
    the hash of the change's quick-mode fig5 JSON.
The four CSV pins and the committed figure CSVs must be byte-identical.
Exits 1 on any other difference.
"""
import hashlib
import re
import subprocess
import sys

PARENT_QUICK, CHANGE_QUICK = sys.argv[1], sys.argv[2]
PARENT = sys.argv[3] if len(sys.argv) > 3 else "cb65ba3"
GOLDEN = "crates/confluence-core/tests/fixtures/metrics/"


def read(path):
    with open(path) as f:
        return f.read()


def parent(path):
    if path.startswith("quick:"):
        return read(f"{PARENT_QUICK}/{path[6:]}")
    return subprocess.run(["git", "show", f"{PARENT}:{path}"], check=True,
                          capture_output=True, text=True).stdout


def change(path):
    return read(f"{CHANGE_QUICK}/{path[6:]}" if path.startswith("quick:") else path)


def json_without_adapt(text):
    return re.sub(r'"adapt":\{[^{}]*\},', "", text)


def prom_without_adapt(text):
    return "".join(l for l in text.splitlines(True)
                   if not re.match(r"(# (HELP|TYPE) )?confluence_adapt_", l))


def table_without_adapt(text):
    return "".join(l for l in text.splitlines(True) if not l.startswith("adapt: "))


def unchanged(text):
    return text


def pins_with_new_fig5(text):
    fig5 = hashlib.sha256(change("quick:fig5_actor_metrics.json").encode()).hexdigest()
    return re.sub(r"^[0-9a-f]{64}(  fig5_actor_metrics\.json)$", fig5 + r"\1", text, flags=re.M)


CSVS = ["fig5_workload.csv", "fig6_rr_sensitivity.csv", "fig7_qbs_sensitivity.csv",
        "fig8_all_schedulers.csv"]
CHECKS = [
    (GOLDEN + "snapshot.json", json_without_adapt),
    (GOLDEN + "metrics.prom", prom_without_adapt),
    (GOLDEN + "table.txt", table_without_adapt),
    ("results/csv/fig5_actor_metrics.json", json_without_adapt),
    ("quick:fig5_actor_metrics.json", json_without_adapt),
    ("results/csv/quick.sha256", pins_with_new_fig5),
] + [(f"{where}{name}", unchanged) for where in ("results/csv/", "quick:") for name in CSVS]

failed = 0
for path, expect in CHECKS:
    old, new = parent(path), change(path)
    if expect(old) != new:
        failed += 1
        print(f"FAIL  {path}: differs from the parent by more than {expect.__name__}")
    elif old == new:
        print(f"same  {path}")
    else:
        lines = len(old.splitlines()) - len(new.splitlines())
        print(f"ok    {path}: equals {expect.__name__}(parent) "
              f"({len(old) - len(new)} bytes, {lines} lines fewer)")
sys.exit(1 if failed else 0)
