#!/usr/bin/env bash
# The line count a simplicity PR reports: Rust lines before each file's
# first #[cfg(test)] or #![cfg(test)] (the whole file when it has
# neither), over crates/*/src, src and examples, per crate and in total.
# Fails when the total exceeds scripts/loc_ceiling.txt. A PR that adds
# code raises the ceiling in its own diff, where a reviewer sees it; one
# that removes code lowers it.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

ceiling=$(cat scripts/loc_ceiling.txt)

find crates/*/src src examples -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#!?\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    {
        part = FILENAME
        sub(/^crates\//, "", part)
        sub(/\/.*/, "", part)
        lines[part]++
        total++
    }
    END {
        for (part in lines) printf "%7d  %s\n", lines[part], part | "sort -k2"
        close("sort -k2")
        printf "%7d  total (ceiling %d)\n", total, ceiling
        if (total > ceiling) {
            print "loc.sh: over the ceiling; delete, or raise scripts/loc_ceiling.txt in this diff" > "/dev/stderr"
            exit 1
        }
    }' ceiling="$ceiling"
