#!/usr/bin/env bash
# Fails if anything would make the build need a crate registry again: one of
# the three removed crates named in a source file or manifest, or a lock
# file entry that resolves anywhere but a path in this checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

if grep -rnE 'parking_lot|proptest|criterion' --include='*.rs' --include='Cargo.toml' \
    Cargo.toml crates src tests examples; then
    echo "guard: removed external crate named above (locks: ncs_sim::sync, properties: ncs_sim::prop, timing: xp_micro)" >&2
    exit 1
fi
if grep -nE '^(source|checksum) =' Cargo.lock; then
    echo "guard: Cargo.lock resolves a package outside this checkout" >&2
    exit 1
fi
echo "guard: no registry needed"
