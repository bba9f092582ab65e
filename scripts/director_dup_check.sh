#!/usr/bin/env bash
# Fails when something that is written once grows a second copy. In
# non-test code:
#  - under crates/confluence-core/src/director/ and
#    crates/confluence-sched/src/, a `FireRecord` may be constructed in one
#    place only (director/firing.rs, `Run::fire`), and events may be
#    stamped in one function only (director/mod.rs, `Fabric::stamp`);
#  - source regulation (`fn pick_source`, the `source_rr` cursor) lives in
#    confluence-sched/src/framework.rs only, not in a policy;
#  - of the two statistics modules only telemetry/livestats.rs builds a
#    downstream table from the workflow (`StatsModule` is a view over it);
#  - graph.rs declares no `connect`/`set_window`/`connect_windowed` beside
#    the `Endpoint` vocabulary, and engine.rs has one watcher observer;
#  - ready windows wait in the `ActorInbox` and nowhere else: nothing under
#    crates/confluence-sched/src declares a container of `Window`, and the
#    only `drain_windows(` call is `Fabric::capture_state`'s;
#  - the Linear Road workflow is written once, as spec text: only
#    linearroad/src/workflow.rs (and the types' own actors.rs) constructs a
#    Linear Road actor, and the only builder links under linearroad/src
#    are `detection_composite`'s inner graph;
#  - a checkpoint pause ends at the next firing boundary, not when a clock
#    says the network has drained: no `DrainWatch`, `QUIESCE_PATIENCE` or
#    `QUIESCE_WATCHDOG` under crates/*/src, and director/firing.rs (the
#    shared lifecycle) imports nothing from `std::time`;
#  - under crates/confluence-core/src/director/ and
#    crates/confluence-sched/src/, the stop and pause requests are read,
#    and a close cascade is opened, in director/firing.rs only (everyone
#    else asks `Run::boundary` or hands a `FiringOrder` to `Run::drive`),
#    and there is one topological sort (one `indeg` table).
set -euo pipefail
cd "$(dirname "$0")/.."

directors="crates/confluence-core/src/director crates/confluence-sched/src"

# "file:line: text" for every match of $1 before a file's first
# #[cfg(test)], over the files and directories that follow it.
matches() {
    local pat=$1
    shift
    find "$@" -name '*.rs' -print0 |
        sort -z |
        xargs -0 awk -v pat="$pat" '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && $0 ~ pat && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }'
}

status=0

records=$(matches 'FireRecord \{' $directors)
if [ "$(printf '%s\n' "$records" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$records" | grep -q '^crates/confluence-core/src/director/firing.rs:'; then
    echo "FireRecord must be constructed exactly once, in director/firing.rs:" >&2
    printf '%s\n' "$records" >&2
    status=1
fi

# "file:line: text" matches on stdin that fall outside the function of
# file $1 declared by the first line containing $2, up to the closing brace
# at that line's indentation.
outside_fn() {
    local span
    span=$(awk -v decl="$2" '
        !start && index($0, decl) {
            start = NR
            match($0, /^ */)
            closer = sprintf("%" RLENGTH "s}", "")
        }
        start && !end && NR > start && $0 == closer { end = NR }
        END { print start ":" end }' "$1")
    awk -F: -v file="$1" -v span="$span" '
        BEGIN { split(span, s, ":") }
        !($1 == file && $2 >= s[1] && $2 <= s[2])'
}
fabric=crates/confluence-core/src/director/mod.rs

stamps=$(matches 'CwEvent::external\(|CwEvent::derived\(' $directors |
    outside_fn $fabric "pub fn stamp(")
if [ -n "$stamps" ]; then
    echo "events may be stamped in Fabric::stamp only:" >&2
    printf '%s\n' "$stamps" >&2
    status=1
fi

# once <what> <the only file allowed> <matches>: every match is in that file.
once() {
    local stray
    stray=$(printf '%s\n' "$3" | grep . | grep -v "^$2:" || true)
    if [ -z "$3" ] || [ -n "$stray" ]; then
        echo "$1 must exist in $2 and nowhere else:" >&2
        printf '%s\n' "${stray:-(no match at all)}" >&2
        status=1
    fi
}

once "source regulation (pick_source / source_rr)" crates/confluence-sched/src/framework.rs \
    "$(matches 'fn pick_source|source_rr' crates/confluence-sched/src)"
once "the downstream table (downstream_actors)" crates/confluence-core/src/telemetry/livestats.rs \
    "$(matches 'downstream_actors\(' crates/confluence-sched/src/stats.rs \
        crates/confluence-core/src/telemetry/livestats.rs)"

wrappers=$(matches 'pub fn (connect|set_window|connect_windowed)[<(]' crates/confluence-core/src/graph.rs)
if [ -n "$wrappers" ]; then
    echo "graph.rs must not declare builder wrappers beside the Endpoint vocabulary:" >&2
    printf '%s\n' "$wrappers" >&2
    status=1
fi
watchers=$(matches 'impl.* Observer for [A-Za-z]*Watcher' crates/confluence-core/src/engine.rs)
if [ "$(printf '%s\n' "$watchers" | grep -c .)" -ne 1 ]; then
    echo "engine.rs must have exactly one watcher observer:" >&2
    printf '%s\n' "$watchers" >&2
    status=1
fi

queues=$(matches '<([^;]*[^A-Za-z])?Window[^A-Za-z]' crates/confluence-sched/src)
if [ -n "$queues" ]; then
    echo "confluence-sched must not hold windows outside the ActorInbox:" >&2
    printf '%s\n' "$queues" >&2
    status=1
fi
drains=$(matches '[^ ]drain_windows\(' crates/*/src src |
    outside_fn $fabric "pub fn capture_state(")
if [ -n "$drains" ]; then
    echo "drain_windows may be called from Fabric::capture_state only:" >&2
    printf '%s\n' "$drains" >&2
    status=1
fi

lr=crates/confluence-linearroad/src
with_store='(AccidentRecorder|AccidentNotifier|MinuteSpeedWriter|SegmentCarsWriter|TollCalculator)'
unit='(StoppedCarDetector|AccidentDetector|CarSpeedAvg|SegmentSpeedAvg|CarCounter)'
lr_actors=$(matches "$with_store::new\\(|(^|[^A-Za-z_])$unit([^A-Za-z_:]|\$)" crates/*/src src examples |
    grep -v -e "^$lr/workflow.rs:" -e "^$lr/actors.rs:" || true)
if [ -n "$lr_actors" ]; then
    echo "Linear Road actors are constructed in linearroad/src/workflow.rs only:" >&2
    printf '%s\n' "$lr_actors" >&2
    status=1
fi
lr_links=$(matches '\.link(_windowed)?\(' $lr |
    outside_fn $lr/workflow.rs "fn detection_composite(")
if [ -n "$lr_links" ]; then
    echo "linearroad/src links actors in detection_composite only (the top level is spec text):" >&2
    printf '%s\n' "$lr_links" >&2
    status=1
fi

drain_clocks=$(matches 'DrainWatch|QUIESCE_PATIENCE|QUIESCE_WATCHDOG' crates/*/src)
if [ -n "$drain_clocks" ]; then
    echo "a checkpoint pause stops at the next firing boundary; no drain detector or quiesce timeout:" >&2
    printf '%s\n' "$drain_clocks" >&2
    status=1
fi
lifecycle_clock=$(matches 'std::time' crates/confluence-core/src/director/firing.rs)
if [ -n "$lifecycle_clock" ]; then
    echo "director/firing.rs must not use std::time (no clock decides the shared lifecycle):" >&2
    printf '%s\n' "$lifecycle_clock" >&2
    status=1
fi

lifecycle=$(matches 'should_stop|pause_requested|quiescing|RunPhase::Close' $directors |
    grep -v '^crates/confluence-core/src/director/firing.rs:' || true)
if [ -n "$lifecycle" ]; then
    echo "stop and pause are read, and the close cascade opened, in director/firing.rs only:" >&2
    printf '%s\n' "$lifecycle" >&2
    status=1
fi
once "the topological sort (indeg)" crates/confluence-core/src/director/firing.rs \
    "$(matches 'indeg' $directors)"

[ "$status" -eq 0 ] &&
    echo "director_dup_check: one FireRecord site, one stamping function, one source frame," \
        "one downstream table, one builder vocabulary, one watcher, one ready queue per actor," \
        "one Linear Road topology, no clock in the pause, one run loop, one topological sort"
exit "$status"
