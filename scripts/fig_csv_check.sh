#!/usr/bin/env bash
# Fails when the figure data drifts: the virtual-time figure runs are
# deterministic, so `experiments --quick --fig5 --fig6 --fig7 --fig8 --csv`
# must write exactly the files whose SHA-256s results/csv/quick.sha256
# pins. After an intended change, regenerate results/csv/ at full scale
# (see results/README.md) and rewrite the pin from this script's output dir.
set -euo pipefail
cd "$(dirname "$0")/.."

pins="$PWD/results/csv/quick.sha256"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo run --release --offline --quiet -p confluence-bench --bin experiments -- \
    --quick --fig5 --fig6 --fig7 --fig8 --csv "$out" >/dev/null
cd "$out"
sha256sum --check --quiet "$pins"
echo "fig_csv_check: $(wc -l <"$pins") quick-mode figure files match results/csv/quick.sha256"
