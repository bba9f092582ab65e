#!/usr/bin/env bash
# Fails when a metric is declared twice. In non-test, non-comment lines
# under crates/confluence-core/src/telemetry/:
#  - every `confluence_*` Prometheus name is written exactly once (the
#    `metric_group!` rows and the three hand-written families of
#    recorder.rs; renderers take the name from there);
#  - series.rs keeps no fire counter of its own (`fires:<actor>` is read
#    from the MetricsRecorder's cells).
set -euo pipefail
cd "$(dirname "$0")/.."

telemetry=crates/confluence-core/src/telemetry

# Non-comment lines before each file's first #[cfg(test)], as "file:line: text".
code() {
    find "$@" -name '*.rs' -print0 |
        sort -z |
        xargs -0 awk '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }'
}

status=0

repeated=$(code "$telemetry" | grep -oE 'confluence_[a-z0-9_]+' | sort | uniq -d)
if [ -n "$repeated" ]; then
    echo "Prometheus names written more than once under $telemetry:" >&2
    for name in $repeated; do
        code "$telemetry" | grep -E "${name}([^a-z0-9_]|\$)" >&2
    done
    status=1
fi

counters=$(code "$telemetry/series.rs" | grep -E 'fires.*AtomicU64|AtomicU64.*fires' || true)
if [ -n "$counters" ]; then
    echo "series.rs must read fire counts from the MetricsRecorder, not count them:" >&2
    printf '%s\n' "$counters" >&2
    status=1
fi

[ "$status" -eq 0 ] &&
    echo "metric_dup_check: every Prometheus name written once, one fire counter per actor"
exit "$status"
