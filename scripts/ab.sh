#!/usr/bin/env bash
# Host-clock A/B of the benchmark: a base revision against a new one, by
# default the working tree.
#
#   bash scripts/ab.sh <base-rev> [<new-rev>] [workload…]   (default: every workload)
#
# A second argument that is not a BENCHMARK.json workload name is the new
# revision. Extracts each revision under target/ab/<sha>/ (git archive: no
# worktree metadata is left in .git), builds the benchmark in both trees
# (offline, release, each in its own benchmark/target), then runs 10
# alternating pairs per workload of
#
#   benchmark/run.sh --workload W --seed S --seconds 10 --trace 0
#
# with a fresh seed per pair (7001, 7002, …), the base first in even pairs
# and the new tree first in odd ones. It fails if any virt_* differs within
# a pair or any run reports a failed operation. For every end-to-end metric
# of BENCHMARK.json it prints the median of the per-pair ratios (new /
# base), their quartiles, the pairs the new tree won and whether the median
# is within the metric's bound, and appends one JSON line per workload to
# results/ab_ledger.jsonl with both commits (`head` is the new revision's
# sha, or HEAD's with "+dirty" if the working tree differs from it),
# worker_cpus and the rustc version. benchmark/Cargo.lock, which every
# run.sh build rewrites, is restored on exit.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
[ $# -ge 1 ] || { echo "usage: scripts/ab.sh <base-rev> [<new-rev>] [workload…]" >&2; exit 2; }
base_sha="$(git rev-parse --verify "$1^{commit}")"
shift
mapfile -t known < <(jq -r '.workloads[].name' BENCHMARK.json)
new_sha=""
if [ $# -ge 1 ] && ! printf '%s\n' "${known[@]}" | grep -qxF -- "$1"; then
    new_sha="$(git rev-parse --verify "$1^{commit}")"
    shift
fi
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=("${known[@]}")
fi
pairs=10
seconds=10
if [ -n "$new_sha" ]; then
    head_sha="$new_sha"
else
    dirty=""
    git diff --quiet HEAD -- . ':!benchmark/Cargo.lock' || dirty="+dirty"
    head_sha="$(git rev-parse HEAD)$dirty"
fi
cpus="$(nproc)"
rustc_v="$(rustc --version)"

# Each tree builds into its own benchmark/target.
unset CARGO_TARGET_DIR
lock_copy="$(mktemp)"
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" "$root/benchmark/Cargo.lock"; rm -f "$lock_copy"' EXIT

# The tree of revision <sha>, extracted once.
extract() { # <sha>
    local dir="$root/target/ab/$1"
    if [ ! -f "$dir/.extracted" ]; then
        mkdir -p "$dir"
        git archive "$1" | tar -x -C "$dir"
        touch "$dir/.extracted"
    fi
    echo "$dir"
}
base_dir="$(extract "$base_sha")"
new_dir="$root"
[ -z "$new_sha" ] || new_dir="$(extract "$new_sha")"
echo "building base ${base_sha:0:12} and new ${head_sha:0:12}…" >&2
(cd "$base_dir" && bash benchmark/run.sh --manifest >/dev/null)
(cd "$new_dir" && bash benchmark/run.sh --manifest >/dev/null)

runs="$root/target/ab/runs"
mkdir -p "$runs"
# One run: prints its result line's metrics object.
run_one() { # <tree> <workload> <seed>
    (cd "$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) |
        tail -n 1 | jq -c '{correct, failed, m: (.metrics | map_values(.value))}'
}

# Quartile positions as benchmark/src/metrics.rs's `quartiles` takes them.
jq_stats='
def q($k): sort as $v | ($v | length) as $n
    | if $n == 1 then $v[0]
      else ($k * ($n + 1) / 4) as $pos | ([[($pos | floor), 1] | max, $n - 1] | min) as $j
      | $v[$j - 1] + ($pos - $j) * ($v[$j] - $v[$j - 1]) end;
[.[0].end_to_end[] as $e
 | [.[1][] | .head.m[$e.name] as $h | .base.m[$e.name] as $b | if $h == $b then 1 else $h / $b end] as $r
 | {name: $e.name, better: $e.better, bound: $e.bound,
    median_ratio: ($r | q(2)), q1: ($r | q(1)), q3: ($r | q(3)),
    wins: ([$r[] | select(if $e.better == "lower" then . < 1 else . > 1 end)] | length),
    within_bound: (($r | q(2)) as $m
        | if $e.better == "lower" then $m <= 1 + $e.bound else $m >= 1 - $e.bound end)}]'

status=0
for w in "${workloads[@]}"; do
    pairs_file="$runs/$w.jsonl"
    : > "$pairs_file"
    for i in $(seq 0 $((pairs - 1))); do
        seed=$((7001 + i))
        if [ $((i % 2)) -eq 0 ]; then
            b="$(run_one "$base_dir" "$w" "$seed")"
            h="$(run_one "$new_dir" "$w" "$seed")"
        else
            h="$(run_one "$new_dir" "$w" "$seed")"
            b="$(run_one "$base_dir" "$w" "$seed")"
        fi
        jq -nc --argjson b "$b" --argjson h "$h" --argjson s "$seed" \
            '{seed: $s, base: $b, head: $h}' >> "$pairs_file"
        echo "  $w seed $seed: wall_s base $(jq .m.wall_s <<< "$b") new $(jq .m.wall_s <<< "$h")" >&2
    done
    bad="$(jq -r 'select(.base.failed != 0 or .head.failed != 0 or
        ([.base.m, .head.m] | map(with_entries(select(.key | startswith("virt_")))) | .[0] != .[1]))
        | .seed' "$pairs_file")"
    if [ -n "$bad" ]; then
        echo "FAIL $w: virt_* differ or operations failed at seed(s) $bad" >&2
        status=1
    fi
    summary="$(jq -n --slurpfile bm BENCHMARK.json --slurpfile p "$pairs_file" "[\$bm[0], \$p] | $jq_stats")"
    echo "== $w: $pairs pairs, new ${head_sha:0:12} / base ${base_sha:0:12}"
    jq -r '.[] | "  \(.name | .+ " " * (18 - length)) median \(.median_ratio * 1000 | round / 1000)  IQR \(.q1 * 1000 | round / 1000)..\(.q3 * 1000 | round / 1000)  wins \(.wins)/'"$pairs"'  \(if .within_bound then "within" else "OUTSIDE" end) bound \(.bound * 100) %"' <<< "$summary"
    jq -nc --arg w "$w" --arg base "$base_sha" --arg head "$head_sha" --arg rustc "$rustc_v" \
        --argjson cpus "$cpus" --argjson pairs "$pairs" --argjson seconds "$seconds" \
        --argjson virt_identical "$([ -z "$bad" ] && echo true || echo false)" --argjson metrics "$summary" \
        '{workload: $w, base: $base, head: $head, pairs: $pairs, seconds: $seconds, worker_cpus: $cpus,
          rustc: $rustc, virt_identical: $virt_identical, metrics: $metrics}' >> results/ab_ledger.jsonl
done
exit "$status"
