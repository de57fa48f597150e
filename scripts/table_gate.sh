#!/usr/bin/env bash
# Table-bench gate: runs the paper-figure/table benches
# (bench_fig1_lattice_chain, bench_table1..8_*) and diffs each one's
# stdout against the committed bench/expected/<binary>.txt. Every one of
# them runs on the deterministic simulator, so any difference — a
# message count, a byte total, a decision — is a behaviour change. A
# bench that exits nonzero (its own [FAIL] verdict) fails the gate too.
#
# It then runs two simulator legs of the fuzzer, whose lines are
# deterministic per seed, and diffs their joint stdout against
# bench/expected/bench_fault_fuzz_sim.txt:
#   bench_fault_fuzz --seeds=1:11 --net=sim
#   bench_fault_fuzz --seeds=1:6 --net=sim --ckpt=8 --laggard
# The second leg forces checkpointing and a laggard crash window, so it
# drives snapshot pulls and their verification.
#
# Usage: scripts/table_gate.sh [--update] [build-dir]   (default: build)
#   --update  rewrite the expected files from this build instead of
#             diffing (only for a change that is meant to move them).
set -euo pipefail

UPDATE=0
if [[ "${1:-}" == "--update" ]]; then
  UPDATE=1
  shift
fi
BUILD="${1:-build}"
EXPECTED="$(cd "$(dirname "$0")/.." && pwd)/bench/expected"

BENCHES=(
  bench_fig1_lattice_chain
  bench_table1_resilience
  bench_table2_wts_delays
  bench_table3_wts_messages
  bench_table4_gwts_messages
  bench_table5_sbs
  bench_table6_gwts_liveness
  bench_table7_rsm
  bench_table8_gsbs
)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$EXPECTED"

status=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD/bench/$bench"
  if [[ ! -x $bin ]]; then
    echo "table_gate: missing $bin (build first)" >&2
    exit 2
  fi
  out="$WORK/$bench.txt"
  if ! "$bin" > "$out"; then
    echo "FAIL $bench: exited nonzero" >&2
    status=1
    continue
  fi
  if [[ $UPDATE == 1 ]]; then
    cp "$out" "$EXPECTED/$bench.txt"
    echo "updated $bench"
  elif diff -u "$EXPECTED/$bench.txt" "$out"; then
    echo "ok   $bench"
  else
    echo "FAIL $bench: stdout differs from bench/expected/$bench.txt" >&2
    status=1
  fi
done

fuzz="$BUILD/bench/bench_fault_fuzz"
if [[ ! -x $fuzz ]]; then
  echo "table_gate: missing $fuzz (build first)" >&2
  exit 2
fi
out="$WORK/bench_fault_fuzz_sim.txt"
if ! { "$fuzz" --seeds=1:11 --net=sim --out="$WORK/fuzz_failures.txt" &&
       "$fuzz" --seeds=1:6 --net=sim --ckpt=8 --laggard \
         --out="$WORK/fuzz_failures.txt"; } > "$out"; then
  echo "FAIL bench_fault_fuzz: a simulator schedule violated safety" >&2
  status=1
elif [[ $UPDATE == 1 ]]; then
  cp "$out" "$EXPECTED/bench_fault_fuzz_sim.txt"
  echo "updated bench_fault_fuzz_sim"
elif diff -u "$EXPECTED/bench_fault_fuzz_sim.txt" "$out"; then
  echo "ok   bench_fault_fuzz_sim"
else
  echo "FAIL bench_fault_fuzz_sim: stdout differs from" \
       "bench/expected/bench_fault_fuzz_sim.txt" >&2
  status=1
fi
exit $status
