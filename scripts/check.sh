#!/usr/bin/env bash
# Full verification pipeline. The stages marked "as CI" mirror CI
# (.github/workflows/ci.yml) exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 as a clean checkout runs it: no registry, lock file as committed (as CI) =="
cargo build --release --offline --locked && cargo test -q --offline --locked

echo "== no-registry guard: removed crate names, lock file sources (as CI) =="
bash scripts/guard_no_registry.sh

echo "== removed names stay removed: no doc, test or example names a deleted API (as CI) =="
if grep -rnE 'CellEventMode|transfer_train|enqueue_train|TrainTiming|TxTrain|CountTrain|schedule_count_train|SchedPolicy|GlobalFifo|new_sharded|SimChannel::bounded|SimChannel::(now|name)|peak_depth|spawn_forwarders|spans_to_csv|--bin (table[123]|fig_|xp_|report)' crates src tests examples DESIGN.md README.md EXPERIMENTS.md \
    || grep -rnE -e '--bin (table[123]|fig_|xp_|report)' scripts .github .claude/skills; then
    echo "removed API or binary named above" >&2
    exit 1
fi

echo "== clippy (as CI) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== analysis: determinism lint + invariant smoke (as CI) =="
cargo run --release -p ncs-analysis -- all

echo "== schedule-space exploration smoke (as CI) =="
cargo run --release -p ncs-analysis -- explore --smoke

# One `xp` run covers what were six per-binary stages, in registry order
# (the report rows run too, ~1 s): pipelined data path (X8); observability
# with golden-trace determinism (X9); event-kernel + sharded scaling with
# the ns/message + exact event-count guard (X10/X12); chaos sweep — faults,
# topologies, sharded harness rider — with the receiver-driven recovery
# guard (X7/X11); async-API overlap, nonblocking matmul beats blocking
# (X13); host-time microbenchmarks. --smoke JSON lands in the untracked
# results/smoke/, never over the checked-in full-size files.
echo "== every experiment, smoke size, guards on (as CI) =="
cargo run --release -p ncs-bench -- all --smoke --guard

echo "== benchmark smoke: five workloads at 1/16 size, verified + deterministic (as CI) =="
bash benchmark/run.sh --smoke

echo "== docs (as CI) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== results are current: regenerate, then no diff under results/ (as CI) =="
cargo run --release -p ncs-bench -- report
git diff --exit-code -- results/ ':!results/BENCH_explore.json'

echo "ALL CHECKS PASSED"
