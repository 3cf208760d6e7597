#!/usr/bin/env bash
# Records this tree's point on the performance trajectory: runs the four
# benchmark workloads (benchmark/run.sh, both clocks, ~40 s each) and
# writes the driver's JSON line of each, keyed by workload, to
# results/BENCH_<short-rev>.json. One file per PR; a speed claim is a
# before/after pair of them. Uncommitted changes mark the rev `-dirty`.
#
#   ./bench_snapshot.sh         this tree's file
#   ./bench_snapshot.sh BASE    the pair: BASE's file, then this tree's
#
# With BASE (a commit other than this tree, e.g. HEAD for uncommitted
# work), BASE and this tree's tracked files are exported into two fresh
# directories at paths of equal length, each built into its own target
# directory, and run alternately, one workload at a time, so a stretch
# of host noise falls on both sides.
set -euo pipefail
cd "$(dirname "$0")"

rev="$(git rev-parse --short=12 HEAD)"
git diff --quiet HEAD || rev="$rev-dirty"

if [ $# -eq 0 ]; then
    trees=(.)
    outs=("results/BENCH_$rev.json")
else
    base="$(git rev-parse --short=12 "$1")"
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    mkdir "$work/a" "$work/b"
    git archive "$base" | tar -x -C "$work/a"
    # The working tree's tracked state as a commit; empty when clean.
    snapshot="$(git stash create)"
    git archive "${snapshot:-HEAD}" | tar -x -C "$work/b"
    trees=("$work/a" "$work/b")
    outs=("results/BENCH_$base.json" "results/BENCH_$rev.json")
    # Each tree builds into its own benchmark/target.
    unset CARGO_TARGET_DIR
fi

for out in "${outs[@]}"; do
    printf '{' > "$out.tmp"
done
sep=''
for workload in serve-small serve-bulk serve-churn batch-scan; do
    for i in "${!trees[@]}"; do
        line="$(cd "${trees[$i]}" && bash benchmark/run.sh "$workload" | tail -n 1)"
        printf '%s"%s":%s' "$sep" "$workload" "$line" >> "${outs[$i]}.tmp"
    done
    sep=$',\n'
done
for out in "${outs[@]}"; do
    printf '}\n' >> "$out.tmp"
    mv "$out.tmp" "$out"
    echo "wrote $out" >&2
done
