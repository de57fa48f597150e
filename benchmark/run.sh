#!/usr/bin/env bash
# Builds the benchmark from source and runs it (see benchmark/README.md).
#
# One run of one workload (the form BENCHMARK.json names):
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
# Every workload of BENCHMARK.json, once or R times with seeds S, S+1,
# ..., alternating workloads, then each metric's median and quartiles:
#   bash benchmark/run.sh [--seed S] [--seconds T] [--traced] [--repeat R]
# gwts_closed (README.md) runs only when named with --workload.
#
# --build-only stops after the build. Build output goes to stderr; the
# last stdout line of a single run is its JSON result. Exits nonzero,
# printing no result, when the build or any output check fails.
set -euo pipefail

cd "$(dirname "$0")/.."
build=.bench_build
out="$build/out"
workloads=(gwts_open sim_gwts_n7 sim_gsbs_ed25519)

workload=""
seed=1
seconds=35
trace=0
repeat=0
build_only=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --build-only) build_only=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bla_bench -j 4 >&2
if [[ "$build_only" -eq 1 ]]; then exit 0; fi

run() {
  "$build/bla_bench" --workload "$1" --seed "$2" --seconds "$seconds" \
    --trace "$trace" --out "$out"
}

if [[ "$repeat" -eq 0 ]]; then
  if [[ -n "$workload" ]]; then
    # exec: signals sent to this script reach the benchmark itself.
    exec "$build/bla_bench" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" --out "$out"
  else
    for w in "${workloads[@]}"; do run "$w" "$seed"; done
  fi
  exit 0
fi

if [[ -n "$workload" ]]; then workloads=("$workload"); fi
mkdir -p "$out"
for w in "${workloads[@]}"; do : > "$out/repeat-$w-trace$trace.jsonl"; done
for ((r = 0; r < repeat; r++)); do
  for w in "${workloads[@]}"; do
    run "$w" "$((seed + r))" | tail -n 1 >> "$out/repeat-$w-trace$trace.jsonl"
  done
done
files=()
for w in "${workloads[@]}"; do files+=("$out/repeat-$w-trace$trace.jsonl"); done
python3 benchmark/summarize.py BENCHMARK.json "${files[@]}"
