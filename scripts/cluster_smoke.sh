#!/usr/bin/env bash
# Cluster smoke: a coordinator fronting three cpelide-server workers over one
# shared store directory runs a 200-job campaign while one worker is crashed
# mid-run (SIGKILL, not a graceful drain). Gates, in order:
#
#   1. loadgen exits nonzero if any job is lost or failed — the campaign must
#      complete 200/200 across the kill.
#   2. The coordinator must have noticed: cluster_workers_healthy == 2.
#   3. A hung worker (SIGSTOP: it still accepts connections but never
#      answers) is marked dead within 5 s (cluster_workers_healthy == 1), and
#      after SIGCONT it is revived within 5 s (back to 2).
#   4. A brand-new worker over the same store directory must serve a replay
#      of the campaign with zero new simulations (runs == 0).
#
# Writes a combined BENCH_cluster.json (schema cluster/v1) with the 3-node
# kill run, a 1-node cold run for comparison, and the restart-from-store run.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT=${OUT:-BENCH_cluster.json}
BIN=$(mktemp -d)
STORE=$(mktemp -d)
SCRATCH=$(mktemp -d)
PIDS=()
cleanup() { for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done; }
trap cleanup EXIT

go build -o "$BIN/" ./cmd/cpelide-coordinator ./cmd/cpelide-server ./cmd/loadgen

# Up = answering HTTP at all; a coordinator with no workers yet answers 503.
wait_up() {
  for _ in $(seq 1 50); do
    curl -s -o /dev/null "$1/healthz" && return # any HTTP answer, even 503
    sleep 0.2
  done
  echo "never came up: $1" >&2
  exit 1
}

loadgen_campaign() { # base-url out-file
  "$BIN/loadgen" -addr "$1" -jobs 200 -distinct 100 -concurrency 16 \
    -scale 0.05 -seed 42 -poll 25ms -out "$2"
}

# --- phase 1: 3 workers, kill one mid-campaign -------------------------------
COORD=http://127.0.0.1:8370
"$BIN/cpelide-coordinator" -addr 127.0.0.1:8370 -health-interval 100ms \
  -fail-threshold 2 &
PIDS+=($!)
wait_up "$COORD"

declare -A WPID
for i in 1 2 3; do
  "$BIN/cpelide-server" -addr "127.0.0.1:837$i" -coordinator "$COORD" \
    -advertise "http://127.0.0.1:837$i" -node "w$i" -store "$STORE" -queue 64 &
  WPID[$i]=$!
  PIDS+=($!)
  wait_up "http://127.0.0.1:837$i"
done

loadgen_campaign "$COORD" "$SCRATCH/three_node.json" &
LG=$!
PIDS+=($LG)

# Crash a worker once the campaign is visibly in flight.
JOBS=0
for _ in $(seq 1 300); do
  JOBS=$(curl -fsS "$COORD/v1/stats" 2>/dev/null | jq -r '.farm.jobs' || echo 0)
  [ "$JOBS" -ge 40 ] && break
  sleep 0.1
done
[ "$JOBS" -ge 40 ] || { echo "campaign never reached 40 farm jobs" >&2; exit 1; }
kill -9 "${WPID[2]}"
echo "crashed w2 at $JOBS farm jobs"

wait "$LG" # gate 1: nonzero exit on any lost or failed job

METRICS=$(curl -fsS "$COORD/metrics")
HEALTHY=$(awk '$1 == "cluster_workers_healthy" { print $2 }' <<<"$METRICS")
[ "$HEALTHY" = 2 ] || { echo "cluster_workers_healthy = $HEALTHY, want 2" >&2; exit 1; }
grep '^cluster_' <<<"$METRICS"

# Hang w3 and wake it again: the health loop's bounded probes must notice both.
wait_healthy() { # want
  local got
  for _ in $(seq 1 50); do
    got=$(curl -fsS "$COORD/metrics" | awk '$1 == "cluster_workers_healthy" { print $2 }')
    [ "$got" = "$1" ] && return
    sleep 0.1
  done
  echo "cluster_workers_healthy = $got after 5s, want $1" >&2
  exit 1
}
kill -STOP "${WPID[3]}"
wait_healthy 1
echo "stopped w3: marked dead"
kill -CONT "${WPID[3]}"
wait_healthy 2
echo "continued w3: revived"

cleanup
PIDS=()

# --- phase 2: 1-node cold run for the artifact's node-count comparison -------
COORD1=http://127.0.0.1:8380
"$BIN/cpelide-coordinator" -addr 127.0.0.1:8380 -health-interval 100ms &
PIDS+=($!)
wait_up "$COORD1"
"$BIN/cpelide-server" -addr 127.0.0.1:8381 -coordinator "$COORD1" \
  -advertise http://127.0.0.1:8381 -node solo -store "$(mktemp -d)" -queue 64 &
PIDS+=($!)
wait_up http://127.0.0.1:8381
loadgen_campaign "$COORD1" "$SCRATCH/one_node.json"
cleanup
PIDS=()

# --- phase 3: fresh worker over the dead cluster's store ---------------------
COORD2=http://127.0.0.1:8390
"$BIN/cpelide-coordinator" -addr 127.0.0.1:8390 -health-interval 100ms &
PIDS+=($!)
wait_up "$COORD2"
"$BIN/cpelide-server" -addr 127.0.0.1:8391 -coordinator "$COORD2" \
  -advertise http://127.0.0.1:8391 -node fresh -store "$STORE" -queue 64 &
PIDS+=($!)
wait_up http://127.0.0.1:8391
loadgen_campaign "$COORD2" "$SCRATCH/restart.json"

RUNS=$(jq -r '.runs' "$SCRATCH/restart.json")
[ "$RUNS" = 0 ] || { echo "restart campaign re-simulated $RUNS jobs; store should serve all" >&2; exit 1; }

jq -n --slurpfile three "$SCRATCH/three_node.json" \
      --slurpfile one "$SCRATCH/one_node.json" \
      --slurpfile restart "$SCRATCH/restart.json" \
      '{schema: "cluster/v1",
        three_node_cold_with_kill: $three[0],
        one_node_cold: $one[0],
        restart_from_store: $restart[0]}' > "$OUT"
echo "wrote $OUT"
jq '{three_node_jps: .three_node_cold_with_kill.throughput_jps,
     one_node_jps: .one_node_cold.throughput_jps,
     restart_jps: .restart_from_store.throughput_jps,
     restart_runs: .restart_from_store.runs}' "$OUT"
