#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it.
#
#   benchmark/run.sh                      every workload, end to end (fixed repetition counts)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload, the form BENCHMARK.json's driver calls
#   benchmark/run.sh --selfcheck          the end-to-end set twice; the two must agree
#   benchmark/run.sh --layers             every workload's traced run + attribution checks
#   benchmark/run.sh --engine os          sensitivity check against the OS-thread engine
#   benchmark/run.sh --smoke              one repetition at 1/16 size, under 5 s
#   benchmark/run.sh --manifest           print BENCHMARK.json
#
# Run from the repository root. Outputs go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
NCS_BENCH_RUSTC="$(rustc --version)"
NCS_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export NCS_BENCH_RUSTC NCS_BENCH_COMMIT
exec "${CARGO_TARGET_DIR:-$here/target}/release/ncs-benchmark" --out "$here/out" "$@"
