#!/usr/bin/env bash
# Fails when the position table exists twice: there is one `postable.rs`
# under crates/ (confluence-core's), and confluence-relstore takes
# `PosTable` from it instead of keeping a module of its own.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

copies=$(find crates -name 'postable.rs' | sort)
if [ "$copies" != "crates/confluence-core/src/postable.rs" ]; then
    echo "expected exactly one postable.rs, crates/confluence-core/src/postable.rs; found:" >&2
    printf '%s\n' "$copies" >&2
    status=1
fi

if ! grep -rqE '^use confluence_core::postable::' crates/confluence-relstore/src ||
    grep -rnE '^(pub )?mod postable' crates/confluence-relstore/src >&2; then
    echo "confluence-relstore must import PosTable from confluence_core::postable" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "postable_dup_check: one postable.rs, relstore imports it from confluence-core"
exit "$status"
