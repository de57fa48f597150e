#!/usr/bin/env bash
# Table-bench gate: runs the paper-figure/table benches
# (bench_fig1_lattice_chain, bench_table1..8_*) and diffs each one's
# stdout against the committed bench/expected/<binary>.txt. Every one of
# them runs on the deterministic simulator, so any difference — a
# message count, a byte total, a decision — is a behaviour change. A
# bench that exits nonzero (its own [FAIL] verdict) fails the gate too.
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
exit $status
