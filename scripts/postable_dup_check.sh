#!/usr/bin/env bash
# Fails when the store keeps a second copy of what confluence-core has:
# - the position table: there is one `postable.rs` under crates/
#   (confluence-core's), and confluence-relstore takes `PosTable` from it
#   instead of keeping a module of its own;
# - the scalar type: no crate declares an `enum Value` beside `Token`, and
#   confluence-relstore writes its cells with the shared token codec, not an
#   `encode_value` / `decode_value` of its own.
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

if grep -rnE '\benum Value\b' crates/*/src >&2; then
    echo "a crate declares its own scalar type: cells and literals are Token" >&2
    status=1
fi

if grep -rnE '\bfn (encode|decode)_value\b' crates/confluence-relstore/src >&2; then
    echo "confluence-relstore must write cells with Encoder::token / Decoder::token" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "postable_dup_check: one postable.rs and one scalar type, both from confluence-core"
exit "$status"
