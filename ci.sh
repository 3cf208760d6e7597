#!/usr/bin/env bash
# Local CI: everything a PR must pass.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Tier-1: every unit, integration and doc test, none `#[ignore]`d — the
# fault drills (fault_tolerance, pathological_patterns), the transform
# differentials (zbs_differential, pass_complexity), the streaming,
# recovery, hot-swap and checkpoint suites (stream_carry,
# stream_recovery, rule_swap, swap_recovery, checkpoint_fuzz), both
# soaks and the cross-process swap drill (cli_drills) run here, once.
cargo test -q

# Benchmark smoke: the oracle-gated benchmark package (its own
# workspace, built from benchmark/) against the current crates, 3 s
# each on the streaming path at 64 B and at 64 KiB windows (per-push
# fixed cost and per-byte layers — every reply checked against the
# oracle at both sizes), on whole sessions against a churning pattern
# cache, and on the fused batch path. An API drift that breaks its
# build, or any wrong answer, fails here instead of in the next
# performance PR. Timings are not judged.
bash benchmark/run.sh serve-small --smoke > /dev/null
bash benchmark/run.sh serve-bulk --smoke > /dev/null
bash benchmark/run.sh serve-churn --smoke > /dev/null
bash benchmark/run.sh batch-scan --smoke > /dev/null

# Paper-table drift gate: Table 4, Figure 12 and Table 5 at their
# committed size must reproduce results/*.csv byte for byte (~10 s).
# Table 4's `Base`/`DTM-` rows are exactly what batch sequential
# segments count, so a walker change that moves a modelled counter
# fails here; Figure 12 carries the modelled throughput ladder
# Base → ZBS and Table 5 the overlap, retry and fallback counts, so
# modelled-clock drift on the batch path fails here too.
TABLEDIR="$(mktemp -d)"
for table in table4 fig12 table5; do
  cargo run -q --release -p bitgen-bench --bin repro -- \
    "$table" --regexes 24 --input 65536 --threads 128 --ctas 8 --out "$TABLEDIR" > /dev/null
  cmp "$TABLEDIR/$table.csv" "results/$table.csv"
done
rm -rf "$TABLEDIR"

# Cross-process checkpoint smoke: suspend a stream in one process,
# resume it in another, and require the combined match count to equal an
# uninterrupted batch scan.
CKPT="$(mktemp)"
trap 'rm -f "$CKPT"' EXIT
BATCH="$(cargo run -q --release -p bitgen --example checkpoint_resume -- batch)"
cargo run -q --release -p bitgen --example checkpoint_resume -- first "$CKPT" > /dev/null
RESUMED="$(cargo run -q --release -p bitgen --example checkpoint_resume -- second "$CKPT")"
if [ "$BATCH" != "$RESUMED" ]; then
  echo "checkpoint smoke: batch '$BATCH' != resumed '$RESUMED'" >&2
  exit 1
fi

# Serve smoke: boot the bitgen-serve daemon on a Unix socket and run 8
# concurrent clients against it — the even ones sharing a pattern set
# (the compiled-pattern cache must report hits), the odd ones split
# across distinct sets — requiring every client's output to be
# byte-identical to `bitgrep --positions` on the same input, at least
# one cache hit in the STATS counters, and a clean daemon exit
# (status 0) after SHUTDOWN.
SERVEDIR="$(mktemp -d)"
SOCK="$SERVEDIR/bitgen.sock"
printf 'cat dog aab cat xaby dooog aab xx %.0s' 1 2 3 4 > "$SERVEDIR/in0.bin"
printf 'aab xaby cat cat dog aab dooog yy %.0s' 1 2 3 4 5 > "$SERVEDIR/in1.bin"
target/release/bitgen-serve serve --socket "$SOCK" -e cat 2>/dev/null &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVEDIR"; rm -f "$CKPT"' EXIT
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || { echo "serve smoke: daemon never bound $SOCK" >&2; exit 1; }
CLIENT_PIDS=()
for i in 0 1 2 3 4 5 6 7; do
  case $i in
    0|2|4|6) PATS=(-e 'cat' -e 'do+g') ;;
    1|5)     PATS=(-e 'a+b') ;;
    3)       PATS=(-e 'x[ab]{1,4}y') ;;
    7)       PATS=(-e 'a+b' -e 'x[ab]{1,4}y') ;;
  esac
  IN="$SERVEDIR/in$((i % 2)).bin"
  target/release/bitgen-serve scan --socket "$SOCK" --tenant "t$i" \
    --chunk $((7 + i)) "${PATS[@]}" "$IN" > "$SERVEDIR/got$i" 2>/dev/null &
  CLIENT_PIDS+=($!)
  target/release/bitgrep "${PATS[@]}" --positions "$IN" > "$SERVEDIR/want$i"
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || { echo "serve smoke: a client failed" >&2; exit 1; }
done
for i in 0 1 2 3 4 5 6 7; do
  if ! cmp -s "$SERVEDIR/got$i" "$SERVEDIR/want$i"; then
    echo "serve smoke: client $i drifted from bitgrep --positions" >&2
    exit 1
  fi
done
STATS_JSON="$(target/release/bitgen-serve stats --socket "$SOCK")"
case "$STATS_JSON" in
  *'"cache_hits":0,'*) echo "serve smoke: no cache hits: $STATS_JSON" >&2; exit 1 ;;
esac
target/release/bitgen-serve shutdown --socket "$SOCK"
wait "$SERVE_PID" || { echo "serve smoke: daemon exited nonzero" >&2; exit 1; }
trap 'rm -rf "$SERVEDIR"; rm -f "$CKPT"' EXIT

# Cross-process drain→adopt drill: a daemon is drained mid-scan, its
# durable streams checkpointed into a manifest, and a fresh daemon on
# the same socket adopts them; the retrying client rides across the
# restart and its positions must still equal `bitgrep --positions`.
DRAINDIR="$(mktemp -d)"
trap 'rm -rf "$SERVEDIR" "$DRAINDIR"; rm -f "$CKPT"' EXIT
DSOCK="$DRAINDIR/drain.sock"
DMANIFEST="$DRAINDIR/drain.manifest"
printf 'cat dog aab cat xaby dooog aab xx %.0s' $(seq 1 4096) > "$DRAINDIR/input.bin"
target/release/bitgrep --serve "$DSOCK" --drain-manifest "$DMANIFEST" 2>/dev/null &
DRAIN_PID=$!
for _ in $(seq 1 100); do [ -S "$DSOCK" ] && break; sleep 0.05; done
[ -S "$DSOCK" ] || { echo "drain drill: daemon never bound $DSOCK" >&2; exit 1; }
target/release/bitgen-serve scan --socket "$DSOCK" --retry --tenant mover \
  --chunk 96 -e 'cat' -e 'do+g' "$DRAINDIR/input.bin" > "$DRAINDIR/got" 2>/dev/null &
SCAN_PID=$!
sleep 0.2
target/release/bitgen-serve drain --socket "$DSOCK" 2>/dev/null || true
wait "$DRAIN_PID" || { echo "drain drill: drained daemon exited nonzero" >&2; exit 1; }
# Restart on the same socket and manifest: durable streams are adopted
# and the in-flight client resumes from its last acked offset.
target/release/bitgrep --serve "$DSOCK" --drain-manifest "$DMANIFEST" 2>/dev/null &
DRAIN_PID=$!
trap 'kill "$DRAIN_PID" 2>/dev/null || true; rm -rf "$SERVEDIR" "$DRAINDIR"; rm -f "$CKPT"' EXIT
wait "$SCAN_PID" || { echo "drain drill: the retrying client failed" >&2; exit 1; }
target/release/bitgrep -e 'cat' -e 'do+g' --positions "$DRAINDIR/input.bin" > "$DRAINDIR/want"
if ! cmp -s "$DRAINDIR/got" "$DRAINDIR/want"; then
  echo "drain drill: positions drifted across the restart" >&2
  exit 1
fi
target/release/bitgen-serve shutdown --socket "$DSOCK" 2>/dev/null
wait "$DRAIN_PID" || { echo "drain drill: successor daemon exited nonzero" >&2; exit 1; }
trap 'rm -rf "$SERVEDIR" "$DRAINDIR"; rm -f "$CKPT"' EXIT

# Compile-pipeline bench smoke: one abbreviated run so a pathological
# compile-time regression fails CI instead of only slowing nightly
# benches. (The bench binary itself keeps sample counts low.)
cargo bench -q -p bitgen-bench --bench compile_pipeline

# Streaming bench smoke: chunked-vs-batch and the O(chunk) push-cost
# sweep (the bench binary keeps sample counts low).
cargo bench -q -p bitgen-bench --bench stream_scan

cargo clippy --workspace -- -D warnings

# Panic-hygiene pass over the library crates: unwrap/expect are flagged
# (warnings only — documented invariants remain, but new ones get seen).
# bitgen-ir includes the stream-plan slot analysis (src/slots.rs).
cargo clippy -q -p bitgen-ir -p bitgen-exec -p bitgen-gpu -p bitgen-baselines -p bitgen \
  -p bitgen-serve -- \
  -W clippy::unwrap_used -W clippy::expect_used

# Standing constraint (ROADMAP.md): benchmark/ and BENCHMARK.json are the
# fixed yardstick. Last, so it also catches a build or run above that
# rewrote a tracked file there (benchmark/Cargo.lock).
if [ -n "$(git status --porcelain benchmark/ BENCHMARK.json)" ]; then
  echo "ci: benchmark/ or BENCHMARK.json differ from HEAD" >&2
  git status --porcelain benchmark/ BENCHMARK.json >&2
  exit 1
fi
