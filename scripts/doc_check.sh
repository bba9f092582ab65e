#!/usr/bin/env bash
# Fails when the three documents outgrow their ceilings or name what does
# not exist, and when rustdoc warns. Four checks:
#  - ceilings: DESIGN.md, README.md and EXPERIMENTS.md each stay at or under
#    their line count in scripts/doc_ceilings.txt. A PR that adds lines
#    raises the ceiling in its own diff; one that removes lines lowers it.
#  - names: every backticked `a::b[::c][()]` in the three documents
#    resolves segment by segment to an identifier of the tracked Rust
#    sources (a crate name's `-` read as `_`), and every backticked path
#    ending in .rs .sh .txt .json .csv or .md is the tail of a tracked file.
#  - citations: a DESIGN.md or EXPERIMENTS.md citation written as the file
#    name, a comma and a quoted title, in the documents or under crates/,
#    src/, tests/, examples/ or scripts/, names a heading of that file.
#  - rustdoc: `cargo doc --workspace --no-deps` with `-D warnings`.
# Names are matched as bare identifiers, so a method that shares its name
# with a live one passes; like reachability_check.sh, a floor, not a proof.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

docs=(DESIGN.md README.md EXPERIMENTS.md)
ceilings=scripts/doc_ceilings.txt
status=0
fail() {
    echo "doc_check: $*" >&2
    status=1
}

idents=$(mktemp)
tracked=$(mktemp)
trap 'rm -f "$idents" "$tracked"' EXIT
# Tracked files, plus new ones not yet added, so a branch checks as CI will.
git ls-files --cached --others --exclude-standard | sort -u |
    while IFS= read -r f; do if [ -e "$f" ]; then printf '%s\n' "$f"; fi; done >"$tracked"

# --- ceilings -------------------------------------------------------------
for doc in "${docs[@]}"; do
    ceiling=$(awk -v d="$doc" '$1 == d { print $2 }' "$ceilings")
    lines=$(wc -l <"$doc")
    if [ -z "$ceiling" ]; then
        fail "$doc has no line in $ceilings"
    elif [ "$lines" -gt "$ceiling" ]; then
        fail "$doc is $lines lines, over its ceiling $ceiling; cut, or raise $ceilings in this diff"
    else
        printf '%6d  %s (ceiling %d)\n' "$lines" "$doc" "$ceiling"
    fi
done

# --- names and paths --------------------------------------------------------
grep '\.rs$' "$tracked" | tr '\n' '\0' |
    xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$idents"

stale=$(grep -noE '`[^`]+`' "${docs[@]}" |
    awk -v idents="$idents" -v tracked="$tracked" '
        BEGIN {
            while ((getline w <idents) > 0) ident[w] = 1
            while ((getline path <tracked) > 0) {
                while (path != "") {
                    tail[path] = 1
                    if (!sub(/^[^\/]*\//, "", path)) break
                }
            }
        }
        {
            where = $0
            sub(/`.*/, "", where)
            span = substr($0, length(where) + 2)
            sub(/`$/, "", span)
            if (span ~ /^[A-Za-z_][A-Za-z0-9_-]*(::[A-Za-z_][A-Za-z0-9_]*)+(\(\))?$/) {
                name = span
                sub(/\(\)$/, "", name)
                gsub(/-/, "_", name)
                k = split(name, seg, "::")
                for (i = 1; i <= k; i++)
                    if (!(seg[i] in ident)) { print where " `" span "`: no `" seg[i] "` in the Rust sources"; break }
            } else if (span ~ /^[A-Za-z0-9_.\/-]+\.(rs|sh|txt|json|csv|md)$/) {
                if (!(span in tail)) print where " `" span "`: no such tracked file"
            }
        }')
if [ -n "$stale" ]; then
    fail "backticked names and paths that resolve to nothing:"
    printf '%s\n' "$stale" >&2
else
    echo "names: every backticked path and a::b name in the three documents resolves"
fi

# --- citations --------------------------------------------------------------
# A citation may wrap: each line is read joined to the one before it, with
# comment leaders and indentation dropped, and a match counts on the line it
# ends on. Headings are read outside fenced blocks.
cited=$(grep -E '^(crates|src|tests|examples|scripts)/|^(DESIGN|README|EXPERIMENTS)\.md$' "$tracked" |
    grep -vx 'scripts/doc_check.sh' | tr '\n' '\0' |
    xargs -0 awk '
        BEGIN {
            split("DESIGN.md EXPERIMENTS.md", docs, " ")
            for (i in docs) {
                fence = 0
                while ((getline line <docs[i]) > 0) {
                    if (line ~ /^```/) fence = !fence
                    else if (!fence && sub(/^#+ /, "", line)) heading[docs[i] ":" line] = 1
                }
            }
        }
        FNR == 1 { prev = "" }
        {
            cur = $0
            sub(/^[[:space:]]*((\/\/[\/!]?|#|\*)[[:space:]]*)?/, "", cur)
            text = prev " " cur
            from = length(prev) + 1
            while (match(text, /(DESIGN|EXPERIMENTS)\.md,[[:space:]]+"[^"]+"/)) {
                hit = substr(text, RSTART, RLENGTH)
                if (RSTART + RLENGTH > from) {
                    doc = hit
                    sub(/,.*/, "", doc)
                    title = hit
                    sub(/^[^"]*"/, "", title)
                    sub(/"$/, "", title)
                    print (((doc ":" title) in heading) ? "ok " : "missing ") FILENAME ":" FNR ": " hit
                }
                from -= RSTART + RLENGTH - 1
                text = substr(text, RSTART + RLENGTH)
            }
            prev = cur
        }')
missing=$(printf '%s\n' "$cited" | sed -n 's/^missing //p')
if [ -n "$missing" ]; then
    fail "citations of a heading that does not exist:"
    printf '%s\n' "$missing" >&2
else
    echo "citations: all $(printf '%s\n' "$cited" | grep -c '^ok ' || true) cite an existing heading"
fi

# --- rustdoc ----------------------------------------------------------------
if RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet; then
    echo "rustdoc: cargo doc --workspace --no-deps passes with -D warnings"
else
    fail "cargo doc --workspace --no-deps fails with -D warnings"
fi

exit "$status"
