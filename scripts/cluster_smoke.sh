#!/usr/bin/env bash
# Loopback cluster smoke: 4 replicad processes left idle for 30 s, which
# must cost each under 0.3 s of CPU (rounds start only on demand) and
# leave the cluster able to commit a late client's commands within 1 s;
# then loadgen, then a paced loadgen at 200 cmd/s (it must take the
# 1.95 s its schedule spans, and on GWTS its due->confirm p50 must stay
# under 50 ms), then the crash drill — kill -9 one replica mid-cluster,
# assert the survivors keep committing, restart it, and assert (a) new commands confirm and
# (b) the rejoiner's obs dump proves checkpoint catch-up ran
# (node<id>/checkpoint/snapshots_adopted > 0). Finally SIGTERM everyone
# and require clean exits (status 0) — the graceful drain path.
#
# Usage: scripts/cluster_smoke.sh [build-dir] [engine] [key-scheme]
#        (defaults: build gwts hmac; e.g. `build gsbs ed25519`)
# Env:   PORT_BASE (default 9400) — first replica port.
set -euo pipefail

BUILD="${1:-build}"
ENGINE="${2:-gwts}"
KEY_SCHEME="${3:-hmac}"
PORT_BASE="${PORT_BASE:-9400}"
REPLICAD="$BUILD/bin/replicad"
LOADGEN="$BUILD/bin/loadgen"
[[ -x $REPLICAD && -x $LOADGEN ]] || {
  echo "cluster_smoke: build replicad + loadgen first (looked in $BUILD/bin)" >&2
  exit 2
}

WORK="$(mktemp -d)"
declare -a PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

CONF="$WORK/cluster.conf"
{
  echo "n 4"
  echo "f 1"
  echo "engine $ENGINE"
  echo "key_scheme $KEY_SCHEME"
  echo "key_seed 42"
  echo "checkpoint_interval 8"
  for i in 0 1 2 3; do
    echo "replica $i 127.0.0.1:$((PORT_BASE + i))"
  done
} > "$CONF"

start_replica() { # id
  local id=$1
  "$REPLICAD" --config "$CONF" --id "$id" \
    --obs-dump "$WORK/obs$id.json" > "$WORK/replica$id.log" 2>&1 &
  PIDS[$id]=$!
}

echo "== starting 4 replicas ($ENGINE, $KEY_SCHEME;" \
  "ports $PORT_BASE..$((PORT_BASE + 3)))"
for i in 0 1 2 3; do start_replica "$i"; done
sleep 1

cpu_ticks() { # pid -> utime + stime so far, in clock ticks
  local stat
  stat=$(< "/proc/$1/stat")
  read -r -a fields <<< "${stat##*) }"  # fields[0] is stat field 3
  echo $((fields[11] + fields[12]))
}

echo "== phase 0: idle for 30 s, then a late client"
declare -a IDLE_TICKS=()
for i in 0 1 2 3; do IDLE_TICKS[$i]=$(cpu_ticks "${PIDS[$i]}"); done
sleep 30
TCK=$(getconf CLK_TCK)
for i in 0 1 2 3; do
  used=$(($(cpu_ticks "${PIDS[$i]}") - IDLE_TICKS[i]))
  echo "   replica $i: $(awk -v t="$used" -v hz="$TCK" \
    'BEGIN { printf "%.2f", t / hz }') s of CPU while idle"
  if ((used * 10 >= 3 * TCK)); then
    echo "cluster_smoke: FAIL — idle replica $i used 0.3 s of CPU or" \
      "more in 30 s" >&2
    exit 1
  fi
done
"$LOADGEN" --config "$CONF" --commands 100 --timeout 1 --id-base 6 --json

echo "== phase 1: baseline load (2 clients x 500 commands)"
"$LOADGEN" --config "$CONF" --commands 500 --clients 2 --timeout 60 --json

echo "== phase 1b: paced load (200 cmd/s, 400 commands)"
PACED=$("$LOADGEN" --config "$CONF" --commands 400 --rate 200 --id-base 7 \
  --timeout 60 --json)
echo "$PACED"
json_field() { # name -> value in $PACED
  grep -o "\"$1\": [0-9.]*" <<< "$PACED" | grep -o '[0-9.]*$'
}
WALL=$(json_field wall_sec)
DUE_P50=$(json_field due_to_confirm_p50_ms)
# Command 399 falls due on tick 39 of 50 ms, at 1.95 s.
if awk -v w="$WALL" 'BEGIN { exit !(w < 1.9) }'; then
  echo "cluster_smoke: FAIL — paced run took ${WALL} s, under the 1.9 s" \
    "its schedule spans: loadgen offered more than --rate" >&2
  exit 1
fi
if [[ $ENGINE == gwts ]] &&
  awk -v p="$DUE_P50" 'BEGIN { exit !(p >= 50) }'; then
  echo "cluster_smoke: FAIL — paced due->confirm p50 ${DUE_P50} ms," \
    "50 ms or more" >&2
  exit 1
fi

echo "== phase 2: kill -9 replica 3, survivors must keep committing"
kill -9 "${PIDS[3]}"
wait "${PIDS[3]}" 2>/dev/null || true
"$LOADGEN" --config "$CONF" --commands 500 --clients 2 --id-base 2 \
  --timeout 60 --json

echo "== phase 3: restart replica 3, new commands must confirm"
start_replica 3
"$LOADGEN" --config "$CONF" --commands 500 --clients 2 --id-base 4 \
  --timeout 60 --json
# Give the rejoiner a moment to finish pulling snapshots before drain.
sleep 2

echo "== graceful drain: SIGTERM all replicas, require exit 0"
for i in 0 1 2 3; do kill -TERM "${PIDS[$i]}"; done
for i in 0 1 2 3; do
  # Bounded at 15 s: a lost SIGTERM fails here instead of hanging the job.
  for ((t = 0; t < 150; t++)); do
    kill -0 "${PIDS[$i]}" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "${PIDS[$i]}" 2>/dev/null; then
    echo "cluster_smoke: FAIL — replica $i still running 15 s after" \
      "one SIGTERM" >&2
    cat "$WORK/replica$i.log" >&2
    exit 1
  fi
  if ! wait "${PIDS[$i]}"; then
    echo "cluster_smoke: FAIL — replica $i did not exit cleanly" >&2
    cat "$WORK/replica$i.log" >&2
    exit 1
  fi
done
PIDS=()

echo "== checkpoint catch-up evidence (restarted replica 3)"
ADOPTED=$(grep -o '"node3/checkpoint/snapshots_adopted": [0-9]*' \
  "$WORK/obs3.json" | grep -o '[0-9]*$' || echo 0)
echo "   node3/checkpoint/snapshots_adopted = $ADOPTED"
if [[ $ADOPTED -lt 1 ]]; then
  echo "cluster_smoke: FAIL — restarted replica adopted no snapshots" >&2
  exit 1
fi

echo "cluster_smoke: PASS"
