#!/usr/bin/env bash
# Full verification pipeline. The stages marked "as CI" mirror CI
# (.github/workflows/ci.yml) exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 as a clean checkout runs it: no registry, lock file as committed (as CI) =="
cargo build --release --offline --locked && cargo test -q --offline --locked

echo "== apps tests under release codegen: exactness pins hold optimized (as CI) =="
cargo test -q --offline --release -p ncs-apps

echo "== every message class over a lossy wire, 64 seeds (as CI) =="
cargo test --release --offline -p ncs-core --test lossy_control -- --ignored

echo "== codec against its one-coefficient-at-a-time reference, 29,606 image·quality cases (as CI) =="
cargo test --release --offline -p ncs-apps -- --ignored

echo "== BENCH_pipeline.json reprinted but for its host-clock byte path (as CI) =="
cargo test --release --offline -p ncs-bench --test registry -- --ignored

echo "== every example runs to exit 0 in release, 60 s each (as CI) =="
bash scripts/run_examples.sh

echo "== no-registry guard: removed crate names, lock file sources (as CI) =="
bash scripts/guard_no_registry.sh

echo "== removed names stay removed: no doc, test or example names a deleted API (as CI) =="
bash scripts/guard_removed_names.sh

echo "== unsafe stays in its islands: engine switch + CRC dispatch only (as CI) =="
bash scripts/guard_unsafe_sites.sh

echo "== clippy (as CI) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# One `xp` run covers what were six per-binary stages, in registry order
# (the report rows run too, ~1 s): pipelined data path (X8); observability
# with golden-trace determinism (X9); event-kernel scaling with the
# ns/message + exact event-count guard (X10); chaos sweep — faults,
# topologies, the 128-host clean ring — with the receiver-driven recovery
# guard (X7/X11); async-API overlap, nonblocking matmul beats blocking
# (X13); schedule-space exploration of the NCS ring, which on a violation
# fails and leaves results/explore_counterexample.trace; host-time
# microbenchmarks. --smoke JSON lands in the untracked results/smoke/,
# never over the checked-in full-size files. The determinism lint and the
# invariant-armed apps run in tier-1 above (`ncs-analysis`'s tests).
echo "== every experiment, smoke size, guards on (as CI) =="
cargo run --release -p ncs-bench -- all --smoke --guard

echo "== benchmark smoke: five workloads at 1/16 size, verified + deterministic, model clock pinned (as CI) =="
bash scripts/model_pins.sh
git diff --exit-code -- results/benchmark_smoke.txt

echo "== docs (as CI) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== results are current: regenerate, then no diff under results/ (as CI) =="
cargo run --release -p ncs-bench -- report
git diff --exit-code -- results/

echo "ALL CHECKS PASSED"
