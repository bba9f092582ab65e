#!/usr/bin/env bash
# Fails when something that is written once grows a second copy. In
# non-test code:
#  - under crates/confluence-core/src/director/ and
#    crates/confluence-sched/src/, a `FireRecord` may be constructed in one
#    place only (director/firing.rs, `Run::fire`), and events may be
#    stamped in one function only (director/mod.rs, `Fabric::stamp`);
#  - source regulation (`fn pick_source`, the `source_rr` cursor) lives in
#    confluence-sched/src/framework.rs only, not in a policy;
#  - STAFiLOS' statistics are one type: no `struct LiveStats` or
#    `struct ActorStats` anywhere, `struct StatsModule` is declared in
#    confluence-core/src/telemetry/stats.rs and nowhere else, and its
#    record method (`record_fire`) is called from director/firing.rs only
#    (`Run::fire` is the one writer);
#  - graph.rs declares no `connect`/`set_window`/`connect_windowed` beside
#    the `Endpoint` vocabulary;
#  - observers only observe: engine.rs implements no `Observer` (a stop or
#    a checkpoint is decided by `Run::boundary` from the run's counters),
#    and no `RunControl`, `request_pause` or `pause_requested` exists under
#    crates/*/src;
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
#  - a stamped batch is delivered at once or waits in a parked wall-clock
#    task: under crates/confluence-core/src/director/ and
#    crates/confluence-sched/src/, `Stamped` is named in
#    director/{mod,firing}.rs only, and no firing order has a `fn drain(` to
#    finish deferred deliveries before a pause;
#  - the two wall-clock directors share one task step: no `set_blocking`,
#    `blocking_enabled`, `pop_blocking`, `InboxPop`, `TaskState`,
#    `flush_pending` or `finalize_task` under crates/*/src (no thread-blocking
#    fabric, no blocking inbox pop, no pool-only copy of the step), the idle
#    source's `SOURCE_BACKOFF` is read in director/firing.rs only;
#  - Parks' relief has no clock: no `RELIEF_PATIENCE`, `relieve_if_stalled`
#    or `new_shared` under crates/*/src and no `progress.fetch_add` in
#    receiver.rs (no patience, no fabric-wide progress counter), and
#    `grow_capacity(` is called from one function only (director/mod.rs,
#    `Fabric::relieve`, which reads the wait-for table);
#  - the fabric wakes every waiting wall-clock task: receiver.rs has no
#    `Condvar`, no `InboxWaker`, `set_waker`, `wait_ready`, `wait_for_space`,
#    `space_waiters` or `notify_space` exists under crates/*/src (the inbox
#    keeps no waker and no wait, and the wait-for table is the one record of
#    parked writers), and the director's wake is called (`.wake(`) in
#    director/mod.rs only;
#  - under crates/confluence-core/src/director/ and
#    crates/confluence-sched/src/, the stop bound and the checkpoint cadence
#    are read, and a close cascade is opened, in director/firing.rs only
#    (everyone else asks `Run::boundary` or hands a `FiringOrder` to
#    `Run::drive`),
#    and there is one topological sort (one `indeg` table);
#  - there is one way into a checkpoint segment: no `attach_checkpoint`,
#    `fn begin(`, `set_resuming`, `fn resuming`, `stage_restore`,
#    `take_captured`, `take_restore` or `fn deposit` under crates/*/src
#    (the hook rides in `Telemetry` and is one slot), and under
#    crates/confluence-core/src/director/ `restore_state(` is called in
#    director/firing.rs only (`Run::open` re-injects, and skips `initialize`);
#  - an error ends the run one way: no `first_error` or `record_error` under
#    crates/*/src (the first error is kept by `Run::fail`, which latches the
#    boundary), `catch_unwind` appears in director/firing.rs only (a task's
#    panic becomes the run's error there), and `close_actor_outputs(` is
#    called from `Run::finish_actor` only (no error path closes an actor's
#    outputs beside it);
#  - a source resumes one way: `LoggedSource::new(` is called in
#    `Engine::wrap_sources` only (which wraps just the sources that save no
#    state), and an event log is opened (`EventLog::create` /
#    `EventLog::append`) in checkpoint/mod.rs only.
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
stats_types=$(matches 'struct (LiveStats|ActorStats)([^A-Za-z_]|$)' crates src examples tests)
if [ -n "$stats_types" ]; then
    echo "one statistics module: LiveStats and ActorStats are gone:" >&2
    printf '%s\n' "$stats_types" >&2
    status=1
fi
once "the statistics module (struct StatsModule)" crates/confluence-core/src/telemetry/stats.rs \
    "$(matches 'struct StatsModule([^A-Za-z_]|$)' crates src examples tests)"
once "recording into the statistics module (record_fire)" crates/confluence-core/src/director/firing.rs \
    "$(matches '\.record_fire\(' crates/*/src src examples)"

wrappers=$(matches 'pub fn (connect|set_window|connect_windowed)[<(]' crates/confluence-core/src/graph.rs)
if [ -n "$wrappers" ]; then
    echo "graph.rs must not declare builder wrappers beside the Endpoint vocabulary:" >&2
    printf '%s\n' "$wrappers" >&2
    status=1
fi
engine_observers=$(matches 'impl.* Observer for ' crates/confluence-core/src/engine.rs)
if [ -n "$engine_observers" ]; then
    echo "engine.rs must not implement Observer (Run::boundary decides stops and checkpoints):" >&2
    printf '%s\n' "$engine_observers" >&2
    status=1
fi
flags=$(matches 'RunControl|request_pause|pause_requested' crates/*/src)
if [ -n "$flags" ]; then
    echo "no stop or pause flag: RunControl, request_pause and pause_requested are gone:" >&2
    printf '%s\n' "$flags" >&2
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

stamped=$(matches '(^|[^A-Za-z_])Stamped([^A-Za-z_]|$)' $directors |
    grep -v -e '^crates/confluence-core/src/director/mod.rs:' \
        -e '^crates/confluence-core/src/director/firing.rs:' || true)
if [ -n "$stamped" ]; then
    echo "Stamped is named in director/{mod,firing}.rs only (delivery is at once, or parked in a wall-clock task):" >&2
    printf '%s\n' "$stamped" >&2
    status=1
fi
drain_steps=$(matches 'fn drain\(' $directors)
if [ -n "$drain_steps" ]; then
    echo "no firing order drains before a pause (a pause lands on the firing that meets the cadence):" >&2
    printf '%s\n' "$drain_steps" >&2
    status=1
fi

task_copies=$(matches 'set_blocking|blocking_enabled|pop_blocking|InboxPop|TaskState|flush_pending|finalize_task' crates/*/src)
if [ -n "$task_copies" ]; then
    echo "one wall-clock task step: no thread-blocking fabric, blocking inbox pop or pool-only copy of the step:" >&2
    printf '%s\n' "$task_copies" >&2
    status=1
fi
once "reading the idle-source backoff (SOURCE_BACKOFF)" crates/confluence-core/src/director/firing.rs \
    "$(matches 'SOURCE_BACKOFF' crates/*/src | grep -v 'const SOURCE_BACKOFF' || true)"
relief_clock=$(
    matches 'RELIEF_PATIENCE|relieve_if_stalled|new_shared' crates/*/src
    matches 'progress\.fetch_add' crates/confluence-core/src/receiver.rs
)
if [ -n "$relief_clock" ]; then
    echo "Parks' relief has no clock: no patience, stall detector or fabric-wide progress counter:" >&2
    printf '%s\n' "$relief_clock" >&2
    status=1
fi
growths=$(matches 'grow_capacity\(' crates/*/src src examples | grep -v 'pub fn grow_capacity(' || true)
stray_growths=$(printf '%s\n' "$growths" | grep . | outside_fn $fabric "    fn relieve(" || true)
if [ -z "$growths" ] || [ -n "$stray_growths" ]; then
    echo "grow_capacity( is called from Fabric::relieve (director/mod.rs) and nowhere else:" >&2
    printf '%s\n' "${stray_growths:-(no match at all)}" >&2
    status=1
fi

receiver_waits=$(
    matches 'Condvar' crates/confluence-core/src/receiver.rs
    matches 'InboxWaker|set_waker|wait_ready|wait_for_space|space_waiters|notify_space' crates/*/src
)
if [ -n "$receiver_waits" ]; then
    echo "the fabric wakes every waiting task: no condvar, waker or wait in the inbox, no second record of parked writers:" >&2
    printf '%s\n' "$receiver_waits" >&2
    status=1
fi
once "calling the director's wake (.wake()" crates/confluence-core/src/director/mod.rs \
    "$(matches '\.wake\(' crates/*/src src examples)"

lifecycle=$(matches '\.stop([^(A-Za-z_]|$)|\.every\(\)|quiescing|RunPhase::Close' $directors |
    grep -v '^crates/confluence-core/src/director/firing.rs:' || true)
if [ -n "$lifecycle" ]; then
    echo "the stop bound and checkpoint cadence are read, and the close cascade opened, in director/firing.rs only:" >&2
    printf '%s\n' "$lifecycle" >&2
    status=1
fi
once "the topological sort (indeg)" crates/confluence-core/src/director/firing.rs \
    "$(matches 'indeg' $directors)"

entries=$(matches 'attach_checkpoint|fn begin\(|set_resuming|fn resuming|stage_restore|take_captured|take_restore|fn deposit' crates/*/src)
if [ -n "$entries" ]; then
    echo "one way into a checkpoint segment: the hook rides in Telemetry, and Run::open takes its one slot:" >&2
    printf '%s\n' "$entries" >&2
    status=1
fi
once "re-injecting checkpointed state (restore_state)" crates/confluence-core/src/director/firing.rs \
    "$(matches '(\.|::)restore_state\(' crates/confluence-core/src/director)"

error_copies=$(matches 'first_error|record_error' crates/*/src)
if [ -n "$error_copies" ]; then
    echo "an error ends the run one way: Run::fail keeps the first error, no first_error/record_error beside it:" >&2
    printf '%s\n' "$error_copies" >&2
    status=1
fi
once "catching a task's panic (catch_unwind)" crates/confluence-core/src/director/firing.rs \
    "$(matches 'catch_unwind' crates/*/src src examples)"
closes=$(matches '\.close_actor_outputs\(' crates/*/src src examples)
stray_closes=$(printf '%s\n' "$closes" | grep . |
    outside_fn crates/confluence-core/src/director/firing.rs "pub fn finish_actor(" || true)
if [ -z "$closes" ] || [ -n "$stray_closes" ]; then
    echo "close_actor_outputs( is called from Run::finish_actor (director/firing.rs) and nowhere else:" >&2
    printf '%s\n' "${stray_closes:-(no match at all)}" >&2
    status=1
fi

wraps=$(matches 'LoggedSource::new\(' crates/*/src src examples)
stray_wraps=$(printf '%s\n' "$wraps" | grep . |
    outside_fn crates/confluence-core/src/engine.rs "fn wrap_sources(" || true)
if [ -z "$wraps" ] || [ -n "$stray_wraps" ]; then
    echo "LoggedSource::new( is called from Engine::wrap_sources (engine.rs) and nowhere else:" >&2
    printf '%s\n' "${stray_wraps:-(no match at all)}" >&2
    status=1
fi
once "opening a source event log (EventLog::create / EventLog::append)" \
    crates/confluence-core/src/checkpoint/mod.rs \
    "$(matches 'EventLog::(create|append)\(' crates/*/src src examples)"

[ "$status" -eq 0 ] &&
    echo "director_dup_check: one FireRecord site, one stamping function, one source frame," \
        "one statistics module and one writer, one builder vocabulary, no control observer or flag, one ready queue per actor," \
        "one Linear Road topology, no clock in the pause, no deferred delivery outside a parked wall-clock task, no drain before a pause," \
        "one wall-clock task step, Parks' relief from the wait-for table alone, one wake path owned by the fabric, one run loop, one topological sort, one way into a checkpoint segment," \
        "one way an error ends the run, one way to resume a source"
exit "$status"
