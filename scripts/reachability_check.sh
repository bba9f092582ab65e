#!/usr/bin/env bash
# Fails when an engine crate declares a public name nothing reaches. For
# every `pub fn|struct|enum|trait|type|const|static` declared before the
# first #[cfg(test)] of a file under the four engine crates' src/, some
# non-comment line other than the declaration must mention the name:
#  - in its own crate's src/ before a file's first #[cfg(test)], or
#  - anywhere outside its crate's src/: another crate's sources, src/,
#    examples/, tests/, a crate's tests/ directory, benchmark/src.
# A `pub use` re-export is not a mention, and neither is a type named in
# its own `impl` block (header or body): a type that is only declared,
# implemented, re-exported and unit-tested has no caller.
# A file under #![cfg(test)] is test code from its first line. A name
# only its own crate's #[cfg(test)] code mentions is unreachable:
# delete it, or give it one line in scripts/reachability_allow.txt
# (`<path under crates/>:<name>  <reason>`, no wildcards).
# Names are matched as bare identifiers, so a method that shares its name
# with a reachable one passes; the check is a floor, not a proof.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

allow=scripts/reachability_allow.txt
engine="crates/confluence-core/src crates/confluence-sched/src
    crates/confluence-relstore/src crates/confluence-linearroad/src"

# shellcheck disable=SC2086
unreachable=$(find $engine crates/confluence-bench/src crates/*/tests \
    src examples tests benchmark/src -name '*.rs' -print0 |
    sort -z |
    xargs -0 awk '
        # The zone a mention counts in: "<crate>:n" / "<crate>:t" for an
        # engine crate'"'"'s src/ before / after the first #[cfg(test)],
        # "ext" for every other file.
        FNR == 1 {
            in_tests = in_use = in_impl = in_header = 0
            own = ""
            if (match(FILENAME, /^crates\/confluence-(core|sched|relstore|linearroad)\/src\//)) {
                own = FILENAME
                sub(/^crates\//, "", own)
                sub(/\/src\/.*/, "", own)
            }
        }
        /#!?\[cfg\(test\)\]/ { in_tests = 1 }
        /^[[:space:]]*\/\// { next }
        # A re-export, to its closing `;`.
        /^[[:space:]]*pub use / { in_use = 1 }
        in_use { if (/;/) in_use = 0; next }
        # A top-level impl block: the names of its header, to its `{`,
        # are not counted again until its closing `}`.
        /^(unsafe )?impl[ <]/ { in_impl = 1; in_header = 1; split("", header) }
        in_header {
            line = $0
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                header[substr(line, RSTART, RLENGTH)] = 1
                line = substr(line, RSTART + RLENGTH)
            }
            if (/\{/) in_header = 0
            if (/\{.*\}[[:space:]]*$/) in_impl = 0  # `impl Marker for T {}`
            next
        }
        /^\}/ { in_impl = 0 }
        {
            zone = own == "" ? "ext" : own ":" (in_tests ? "t" : "n")
            zones[zone] = 1
            line = $0
            if (own != "" && !in_tests &&
                match(line, /^[[:space:]]*pub ((const|async|unsafe) )*(fn|struct|enum|trait|type|const|static) +(mut +)?[A-Za-z_][A-Za-z0-9_]*/)) {
                declared = substr(line, RSTART, RLENGTH)
                sub(/.* /, "", declared)
                line = substr(line, RSTART + RLENGTH)
                key = FILENAME
                sub(/^crates\//, "", key)
                decls[key ":" declared] = own
            }
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                word = substr(line, RSTART, RLENGTH)
                if (!(in_impl && (word in header)))
                    seen[word, zone] = 1
                line = substr(line, RSTART + RLENGTH)
            }
        }
        END {
            for (d in decls) {
                name = d
                sub(/.*:/, "", name)
                reached = 0
                for (z in zones)
                    if (z != decls[d] ":t" && ((name, z) in seen))
                        reached = 1
                if (!reached)
                    print d
            }
        }' | sort)

status=0

# One literal file and one literal name per line: no wildcard fits the pattern.
if grep -nvE '^[a-z-]+/src/[A-Za-z0-9_/]+\.rs:[A-Za-z0-9_]+  +[^ ].*$' "$allow" >&2; then
    echo "$allow: every line is \`<path under crates/>:<name>  <reason>\`" >&2
    status=1
fi
allowed=$(sed 's/ .*//' "$allow" | sort)

stray=$(comm -23 <(printf '%s\n' "$unreachable" | grep . || true) <(printf '%s\n' "$allowed"))
if [ -n "$stray" ]; then
    echo "public names only their own crate's #[cfg(test)] code mentions" \
        "(delete them, or add a reason to $allow):" >&2
    printf '%s\n' "$stray" >&2
    status=1
fi
stale=$(comm -13 <(printf '%s\n' "$unreachable" | grep . || true) <(printf '%s\n' "$allowed"))
if [ -n "$stale" ]; then
    echo "$allow names what is reachable or gone; drop the line:" >&2
    printf '%s\n' "$stale" >&2
    status=1
fi
if [ "$(printf '%s\n' "$allowed" | grep -c .)" -gt 25 ]; then
    echo "$allow holds more than 25 names" >&2
    status=1
fi

[ "$status" -eq 0 ] &&
    echo "reachability_check: every public name of the engine crates is mentioned outside" \
        "its own tests ($(printf '%s\n' "$allowed" | grep -c .) allowed with a reason)"
exit "$status"
