#!/usr/bin/env bash
# Local CI: everything a PR must pass.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Tier-1: every unit, integration and doc test, none `#[ignore]`d — the
# fault drills (fault_tolerance, pathological_patterns; the seeded sweep
# on every rung, walked slots and emulated ones, with exactly the groups
# whose fused form is not exact building a plan), the transform
# differentials (zbs_differential, pass_complexity), the streaming,
# recovery, hot-swap and checkpoint suites (stream_carry,
# stream_recovery, rule_swap, swap_recovery, checkpoint_fuzz), what a
# stream's carries cost the allocator (carry_alloc: opening a stream,
# resume + checkpoint and dropping a checkpoint allocate per group, not
# per carry slot, on the served Snort and TCP ×32 sets; with bitgen-ir's
# carry tests holding slots of 1, 63, 64, 65 and 130 bits to the
# checkpoint byte format and a per-slot FNV seal), the
# served window against the single-stepped walk and the reference on
# every application up to 64 KiB chunks, with its fused-coverage gate
# (stream_fusion), the served-pricing differential (served_pricing: each
# group's fused form of a window against the CTA emulator — DTM- field by
# field on every application; DTM, replayed over the walk's loop checks,
# field by field on every application up to 4 KiB and on the served
# Snort/TCP ×32 sets at 64 B and 4 KiB, within 10 % of the launch at
# 64 KiB, and through a loop that overflows the window; a twin with an
# `Add` keeping DTM-; every push billed the cheaper launch, 64 B ones
# fused; a served stream's accumulators keeping the billed launch's
# recompute and dynamic-overlap figures; every push billed fused exactly
# when that launch is cheaper, on every scheme; a Sequential, Base, DTM-
# and DTM engine's scan, whose exact groups walk as a one-push stream,
# against the oracle and every per-CTA field and the seconds of the
# emulated launch on the engine's scheme, at 1, 2 and 8 threads, with
# FallbackPolicy::Error's typed overflow, given before the walk even with
# a fault armed and cross-check on, on DTM- and DTM; the same on random
# rule sets in parallel_scan, whose thread-count proptest runs each case
# on ZBS, DTM- and DTM; walked slots' degrade replay and buffer reuse on
# every scheme, and a walking engine never building a batch plan, in
# bitgen's session tests; one warm-up sizing every slot buffer in use,
# whatever order windows ran in, in bitgen-exec's), the one window loop both clocks
# step (bitgen-passes' windows tests: quiet windows taken at once equal to
# single steps over random hulls, allowances, streams and trips; a retry
# at the same store position; overflow past the capacity and not at it;
# a first window left of position 0), the static per-loop kernel counts
# against the emulator (bitgen-gpu's cta tests), the walker's loop-check
# sites against the
# overlap analysis and the kernels (bitgen-kernel's kir tests),
# the kernel digest over 729 generated kernels (codegen_golden), the
# one window semantics (window_semantics: every window the emulator's
# window loop steps, retries included, takes the trips and stores the
# outputs of `walk_window` over its extent, on all ten applications at 8
# and 32 rules up to 64 KiB; with bitgen's price tests walking every
# window the counting runner takes and pinning the divergent ones), the
# wire tokenisation differential and the raw-frame mutation fuzz
# (wire_fuzz: raw `PUSH` frames cut mid-payload, with lengths past the
# bound, missing or not decimal, or bytes trailing the payload, through a
# daemon, against a walk of the whole input), the raw frame at the
# daemon (raw_push: served as its hex twin, stalled, replayed), the
# `LineReader` framing fuzz (bitgen-serve's transport tests: arbitrary
# bytes and raw payloads holding `\n`, `\r` and 0xff in arbitrary pieces
# with stalls, against walking the whole input; and the bind race, a
# client connecting the instant a daemon's socket path exists, never
# refused), a refused adoption that caches and evicts nothing
# (bitgen-serve's service tests), an earlier build's
# drain manifest adopted and re-drained (manifest_compat), a daemon's
# descriptor count after 200 ended connections (daemon_fds, Linux),
# both soaks and the
# cross-process drills on the built binaries
# (cli_drills: rule swap, checkpoint resume, 8-client serve smoke,
# drain → adopt) run here, once. The `match_star` arms hold a MatchStar
# engine to one lowering per group: it streams nested class stars
# exactly (stream_carry), its fused DTM- price is exact on `Add`
# segments, which keep DTM- under every scheme (served_pricing), its
# batch side is built from the streamed program (match_star), and a
# plain engine's checkpoint is refused on it (checkpoint_compat). `--no-fail-fast` runs every test binary, so one
# run shows every red suite; any failure still fails the script.
cargo test -q --no-fail-fast

# Non-test `src` lines per crate, each file cut at its first
# `#[cfg(test)]`, then their workspace total: the figures CHANGES.md and
# ROADMAP.md report. The streaming executor may not grow past its
# budget, so ROADMAP item 1(b) pays in crates/exec for what it adds; the
# serving crate may not grow at all (ROADMAP item 2).
EXEC_BUDGET=1918
SERVE_BUDGET=4435
total=0
for dir in crates/*/src; do
  lines=$(find "$dir" -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} +)
  printf 'non-test src lines: %-10s %6d\n' "$(basename "$(dirname "$dir")")" "$lines"
  total=$((total + lines))
  case "$dir" in
    crates/exec/src) budget=$EXEC_BUDGET ;;
    crates/serve/src) budget=$SERVE_BUDGET ;;
    *) continue ;;
  esac
  if [ "$lines" -gt "$budget" ]; then
    echo "ci: $dir has $lines non-test lines, budget $budget" >&2
    exit 1
  fi
done
printf 'non-test src lines: %-10s %6d\n' total "$total"

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

# Paper-table drift gate: every modelled experiment at its committed
# size must reproduce results/*.csv byte for byte (~4 s in all; fig11,
# table2 and the ablations hold host-measured columns and are not
# gated). Table 4's `Base`/`DTM-` rows are the served price of the walk
# (a Base or DTM- scan walks and bills its exact fused form), so a change
# to the walker's counts or to that price fails here; Figure 12 carries
# the modelled throughput ladder
# Base → ZBS and Table 5 the overlap, retry and fallback counts, so
# modelled-clock drift on the batch path fails here too; Figure 15
# sweeps CTA thread counts, where a change to how the emulator runs a
# register's lanes would diverge first.
TABLEDIR="$(mktemp -d)"
for table in table1 table3 table4 table5 table6 fig12 fig13 fig14 fig15; do
  cargo run -q --release -p bitgen-bench --bin repro -- \
    "$table" --regexes 24 --input 65536 --threads 128 --ctas 8 --out "$TABLEDIR" > /dev/null
  cmp "$TABLEDIR/$table.csv" "results/$table.csv"
done
rm -rf "$TABLEDIR"

cargo clippy --workspace --all-targets -- -D warnings

# Panic-hygiene pass over the library crates: unwrap/expect are flagged
# (warnings only — documented invariants remain, but new ones get seen).
# bitgen-ir includes the stream-plan slot analysis (src/slots.rs).
cargo clippy -q -p bitgen-ir -p bitgen-exec -p bitgen-gpu -p bitgen-baselines -p bitgen \
  -p bitgen-serve -- \
  -W clippy::unwrap_used -W clippy::expect_used

# Rustdoc link gate: a renamed or newly private item that an intra-doc
# link still names fails here. The twelve crates by name, not
# `--workspace`: the vendored `proptest` stand-in has an ambiguous
# [`vec`] link of its own.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps -p bitgen -p bitgen-exec -p bitgen-ir \
  -p bitgen-serve -p bitgen-passes -p bitgen-gpu -p bitgen-kernel -p bitgen-bitstream \
  -p bitgen-regex -p bitgen-baselines -p bitgen-workloads -p bitgen-bench

# Standing constraint (ROADMAP.md): benchmark/ and BENCHMARK.json are the
# fixed yardstick. Last, so it also catches a build or run above that
# rewrote a tracked file there (benchmark/Cargo.lock).
if [ -n "$(git status --porcelain benchmark/ BENCHMARK.json)" ]; then
  echo "ci: benchmark/ or BENCHMARK.json differ from HEAD" >&2
  git status --porcelain benchmark/ BENCHMARK.json >&2
  exit 1
fi
