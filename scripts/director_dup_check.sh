#!/usr/bin/env bash
# Fails when a director re-grows its own copy of the firing step: in
# non-test code under crates/confluence-core/src/director/ and
# crates/confluence-sched/src/, a `FireRecord` may be constructed in one
# place only (director/firing.rs, `Run::fire`), and events may be stamped
# in one function only (director/mod.rs, `Fabric::stamp`).
set -euo pipefail
cd "$(dirname "$0")/.."

# "file:line: text" for every match of $1 before a file's first #[cfg(test)].
matches() {
    find crates/confluence-core/src/director crates/confluence-sched/src -name '*.rs' -print0 |
        sort -z |
        xargs -0 awk -v pat="$1" '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && $0 ~ pat && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }'
}

status=0

records=$(matches 'FireRecord \{')
if [ "$(printf '%s\n' "$records" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$records" | grep -q '^crates/confluence-core/src/director/firing.rs:'; then
    echo "FireRecord must be constructed exactly once, in director/firing.rs:" >&2
    printf '%s\n' "$records" >&2
    status=1
fi

# Fabric::stamp's line span in director/mod.rs.
span=$(awk '/pub fn stamp\(/ { start = NR } start && !end && /^    }$/ { end = NR } END { print start ":" end }' \
    crates/confluence-core/src/director/mod.rs)
stamps=$(matches 'CwEvent::external\(|CwEvent::derived\(' |
    awk -F: -v span="$span" '
        BEGIN { split(span, s, ":") }
        !($1 == "crates/confluence-core/src/director/mod.rs" && $2 >= s[1] && $2 <= s[2])')
if [ -n "$stamps" ]; then
    echo "events may be stamped in Fabric::stamp only:" >&2
    printf '%s\n' "$stamps" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "director_dup_check: one FireRecord site, one stamping function"
exit "$status"
