#!/usr/bin/env bash
# Builds every example under examples/ in release and runs each one with
# its default arguments under `timeout 60`, failing on the first non-zero
# exit (a panic, a hang past the limit, a failed assertion). `cargo test`
# only compiles the examples; this runs them. `real_tcp` uses loopback
# sockets only. CI and scripts/check.sh both run this one copy.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --examples
bin="${CARGO_TARGET_DIR:-target}/release/examples"
for src in examples/*.rs; do
    ex="$(basename "$src" .rs)"
    echo "== example $ex =="
    if ! timeout 60 "$bin/$ex" >/dev/null; then
        echo "example $ex failed" >&2
        exit 1
    fi
done
echo "examples: all $(ls examples/*.rs | wc -l) ran to exit 0"
