#!/usr/bin/env bash
# Per-phase VmHWM of the lr_checkpoint_scwf unit on one checkout.
#
# usage: results/pr27/phase_hwm.sh CHECKOUT LABEL SEED...
#
# Copies phase_hwm.rs into CHECKOUT/examples, runs it once per seed in
# release (one process per seed), prints its markdown rows, and deletes
# the copy again. Point it at a scratch copy of the tree, not a working one.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
checkout=$1
label=$2
shift 2
cp "$here/phase_hwm.rs" "$checkout/examples/phase_hwm.rs"
trap 'rm -f "$checkout/examples/phase_hwm.rs"' EXIT
(cd "$checkout" && cargo build --release --offline --quiet --example phase_hwm)
for seed in "$@"; do
    (cd "$checkout" && ./target/release/examples/phase_hwm "$seed" "$label")
done
