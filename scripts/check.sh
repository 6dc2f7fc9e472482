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
if grep -rnE 'CellEventMode|transfer_train|enqueue_train|TrainTiming|TxTrain|CountTrain|schedule_count_train|SchedPolicy|GlobalFifo|new_sharded|SimChannel::bounded' crates src tests examples DESIGN.md README.md EXPERIMENTS.md; then
    echo "removed API named above" >&2
    exit 1
fi

echo "== clippy (as CI) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== analysis: determinism lint + invariant smoke (as CI) =="
cargo run --release -p ncs-analysis -- all

echo "== schedule-space exploration smoke (as CI) =="
cargo run --release -p ncs-analysis -- explore --smoke

echo "== pipelined data path smoke (as CI) =="
cargo run --release -p ncs-bench --bin xp_pipeline -- --smoke

echo "== observability smoke: golden-trace determinism (as CI) =="
cargo run --release -p ncs-bench --bin xp_observe -- --smoke

echo "== event-kernel + sharded scaling smoke + ns/event regression guard (as CI) =="
cargo run --release -p ncs-bench --bin xp_scale -- --smoke --guard

echo "== chaos sweep smoke: faults, topologies, sharded harness rider + receiver-driven recovery guard (as CI) =="
cargo run --release -p ncs-bench --bin xp_chaos -- --smoke --guard

echo "== async-API overlap smoke: nonblocking matmul beats blocking (as CI) =="
cargo run --release -p ncs-bench --bin xp_overlap -- --smoke

echo "== benchmark smoke: five workloads at 1/16 size, verified + deterministic (as CI) =="
bash benchmark/run.sh --smoke

echo "== host-time microbenchmarks smoke (as CI) =="
cargo run --release -p ncs-bench --bin xp_micro -- --smoke

echo "== docs (as CI) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== results are current: regenerate, then no diff under results/*.txt (as CI) =="
cargo run --release -p ncs-bench --bin report
git diff --exit-code -- 'results/*.txt'

echo "ALL CHECKS PASSED"
