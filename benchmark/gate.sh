#!/usr/bin/env bash
# Deterministic gate: reruns both simulator workloads for one traced
# iteration at seed 1 and compares their exact counters (messages and
# bytes per command, by module; signature operations per command;
# simulated message delays) bit for bit with baseline_counts.json.
# Wall-clock numbers are not gated. Takes under 10 s once built.
#
#   bash benchmark/gate.sh            # exit 0 iff every counter matches
#   bash benchmark/gate.sh --update   # rewrite the baseline
set -euo pipefail

cd "$(dirname "$0")/.."
bash benchmark/run.sh --build-only
build=.bench_build
mkdir -p "$build/out"
actual="$build/out/gate_counts.json"
{
  echo "["
  "$build/bla_bench" --workload sim_gwts_n7 --seed 1 --gate
  echo ","
  "$build/bla_bench" --workload sim_gsbs_ed25519 --seed 1 --gate
  echo "]"
} > "$actual"
if [[ "${1:-}" == "--update" ]]; then
  cp "$actual" benchmark/baseline_counts.json
  exit 0
fi
diff -u benchmark/baseline_counts.json "$actual"
echo "gate: exact simulator counters match the baseline"
