#!/usr/bin/env bash
# Model-clock pins of the benchmark's five workloads. Runs
# `benchmark/run.sh --smoke` (one repetition each at 1/16 size) and writes
# each workload's trace hash, kernel event count and virt_* values to
# results/benchmark_smoke.txt. All of them are deterministic per seed, so
#
#   bash scripts/model_pins.sh && git diff --exit-code -- results/benchmark_smoke.txt
#
# fails on any change to the number or order of kernel events or to virtual
# time. Wall-clock values are left out: they move run to run. Compare only
# this file afterwards: every run.sh build also rewrites benchmark/Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")/.."
bash benchmark/run.sh --smoke | awk '
    /^== / { w = $2 }
    $1 == "info" && ($2 == "trace_hash" || $2 == "events") { print w, $2, $3 }
    $1 ~ /^virt_/ { print w, $1, $2 }
' > results/benchmark_smoke.txt
