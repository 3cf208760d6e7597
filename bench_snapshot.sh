#!/usr/bin/env bash
# Records this tree's point on the performance trajectory: runs the four
# benchmark workloads (benchmark/run.sh, both clocks, ~40 s each) and
# writes the driver's JSON line of each, keyed by workload, to
# results/BENCH_<short-rev>.json. One file per PR; a speed claim is a
# before/after pair of them. Uncommitted changes mark the rev `-dirty`.
set -euo pipefail
cd "$(dirname "$0")"

rev="$(git rev-parse --short=12 HEAD)"
git diff --quiet HEAD || rev="$rev-dirty"
out="results/BENCH_$rev.json"
sep='{'
for workload in serve-small serve-bulk serve-churn batch-scan; do
    line="$(bash benchmark/run.sh "$workload" | tail -n 1)"
    printf '%s"%s":%s' "$sep" "$workload" "$line"
    sep=$',\n'
done > "$out.tmp"
printf '}\n' >> "$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out" >&2
