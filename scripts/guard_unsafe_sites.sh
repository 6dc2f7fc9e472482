#!/usr/bin/env bash
# Fails unless the crates' sanctioned `unsafe` sites are exactly the two
# known islands: the coroutine engine's context switch (`sim/src/engine/
# mod.rs` scopes an allow over `engine/coro.rs`, which repeats it on its one
# `unsafe impl`) and the CRC-32 dispatch into the carry-less-multiply kernel
# (`net/src/crc.rs`), one allow per file. The two crates holding them say
# `deny(unsafe_code)`; every other crate root, library or binary, must
# still say `forbid`. CI and scripts/check.sh both run this one copy.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
want=$'crates/net/src/crc.rs\ncrates/sim/src/engine/coro.rs\ncrates/sim/src/engine/mod.rs'
# One line per attribute (not per file), so a second site in a sanctioned
# file fails too.
have=$(grep -rHE '^[[:space:]]*#!?\[.*(allow|expect)\([^)]*\bunsafe_code\b' crates/*/src |
    cut -d: -f1 | sort || true)
if [ "$have" != "$want" ]; then
    printf 'guard: allow(unsafe_code) sites are:\n%s\nexpected exactly:\n%s\n' \
        "${have:-<none>}" "$want" >&2
    status=1
fi
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs crates/*/src/bin/*.rs; do
    [ -e "$root" ] || continue
    case "$root" in
    crates/net/src/lib.rs | crates/sim/src/lib.rs) policy='deny' ;;
    *) policy='forbid' ;;
    esac
    if ! grep -qx "#!\[$policy(unsafe_code)\]" "$root"; then
        echo "guard: $root does not say #![$policy(unsafe_code)]" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "guard: unsafe stays in its two islands"
fi
exit "$status"
