#!/usr/bin/env bash
# Builds the benchmark, pins it to one CPU and runs it.
#
#   benchmark/run.sh <workload> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#   benchmark/run.sh --workload <workload> --seed N --seconds S --trace 0|1
#   benchmark/run.sh --selfcheck
#
# Workloads: serve-small serve-bulk serve-churn batch-scan. Prints every
# metric by name with its unit, then one JSON line; exits non-zero on
# any wrong answer. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/bitgen-benchmark"

# One core: the highest-numbered CPU this process may use, so daemon,
# worker and client hand off by context switch and nothing migrates.
pin=()
if command -v taskset >/dev/null; then
    allowed="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)"
    pin=(taskset -c "${allowed##*[,-]}")
fi

if [ "${1:-}" != "--selfcheck" ]; then
    exec "${pin[@]}" "$bin" "$@"
fi

# Self-check: every workload five times back to back on five seeds,
# then the spread of each gated metric.
mkdir -p benchmark/out
log="benchmark/out/selfcheck.tsv"
: > "$log"
for workload in serve-small serve-bulk serve-churn batch-scan; do
    for seed in 1 2 3 4 5; do
        printf '%s\t' "$workload" >> "$log"
        "${pin[@]}" "$bin" "$workload" --seed "$seed" | tail -n 1 >> "$log"
    done
done
"$bin" --summarize "$log"
