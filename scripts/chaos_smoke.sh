#!/usr/bin/env bash
# Chaos smoke: proves the cluster's failure story with real processes and
# real signals. Two phases, each with a hard gate:
#
#   1. Crash recovery: a coordinator fronting three workers runs a 200-job
#      campaign and is SIGKILLed mid-run, then restarted with no state at
#      the same address. Gates: cluster_workers_healthy is back at 3 within
#      5 s of the restart (the workers' heartbeats re-register them), and
#      the campaign completes with zero lost/failed jobs (loadgen exits
#      nonzero otherwise).
#   2. Store integrity: one stored result file is overwritten with garbage,
#      and a fresh worker replays the campaign over the damaged store.
#      Gates: store_corrupt_total == quarantined file count, exactly the
#      corrupted job re-simulates, and the campaign still completes clean.
#
# Writes BENCH_chaos.json (schema chaos/v1): coordinator restart time, the
# time until all workers rejoined, the hedge counters, and both campaign
# results.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT=${OUT:-BENCH_chaos.json}
BIN=$(mktemp -d)
STORE=$(mktemp -d)
SCRATCH=$(mktemp -d)
PIDS=()
cleanup() { for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done; }
trap cleanup EXIT

go build -o "$BIN/" ./cmd/cpelide-coordinator ./cmd/cpelide-server ./cmd/loadgen

wait_up() { # base-url
  for _ in $(seq 1 100); do
    curl -s -o /dev/null "$1/healthz" && return # any HTTP answer, even 503
    sleep 0.1
  done
  echo "never came up: $1" >&2
  exit 1
}

# --- phase 1: SIGKILL the coordinator mid-campaign, restart with no state ----
COORD=http://127.0.0.1:8470
start_coordinator() { # retries the bind: right after SIGKILL the port can lag
  for _ in 1 2 3 4 5; do
    "$BIN/cpelide-coordinator" -addr 127.0.0.1:8470 -health-interval 100ms \
      -fail-threshold 2 -hedge-after 250ms &
    CPID=$!
    PIDS+=($CPID)
    for _ in $(seq 1 50); do
      kill -0 "$CPID" 2>/dev/null || break # bind failed, process exited
      curl -s -o /dev/null "$COORD/healthz" && return # any HTTP answer, even 503
      sleep 0.1
    done
    kill -9 "$CPID" 2>/dev/null || true
    sleep 0.2
  done
  echo "coordinator never came up at $COORD" >&2
  exit 1
}
start_coordinator

for i in 1 2 3; do
  "$BIN/cpelide-server" -addr "127.0.0.1:847$i" -coordinator "$COORD" \
    -advertise "http://127.0.0.1:847$i" -node "w$i" -store "$STORE" -queue 64 &
  PIDS+=($!)
  wait_up "http://127.0.0.1:847$i"
done

"$BIN/loadgen" -addr "$COORD" -jobs 200 -distinct 100 -concurrency 16 \
  -scale 0.05 -seed 42 -poll 25ms -retry-max 500ms \
  -out "$SCRATCH/crash.json" &
LG=$!
PIDS+=($LG)

JOBS=0
for _ in $(seq 1 300); do
  JOBS=$(curl -fsS "$COORD/v1/stats" 2>/dev/null | jq -r '.farm.jobs' || echo 0)
  [ "$JOBS" -ge 40 ] && break
  sleep 0.1
done
[ "$JOBS" -ge 40 ] || { echo "campaign never reached 40 farm jobs" >&2; exit 1; }

kill -9 "$CPID"
echo "SIGKILLed coordinator at $JOBS farm jobs"
T0=$(date +%s%N)
start_coordinator
T1=$(date +%s%N)
RECOVERY_MS=$(( (T1 - T0) / 1000000 ))
echo "coordinator restarted in ${RECOVERY_MS}ms"

# Gate: the workers' heartbeats bring all three back within 5 s.
HEALTHY=0
while :; do
  HEALTHY=$(curl -fsS "$COORD/metrics" | awk '$1 == "cluster_workers_healthy" { print $2 }')
  T2=$(date +%s%N)
  REJOIN_MS=$(( (T2 - T1) / 1000000 ))
  [ "${HEALTHY:-0}" = 3 ] && break
  [ "$REJOIN_MS" -lt 5000 ] || {
    echo "cluster_workers_healthy = $HEALTHY ${REJOIN_MS}ms after the restart, want 3 within 5s" >&2; exit 1; }
  sleep 0.05
done
echo "3 workers rejoined ${REJOIN_MS}ms after the restart"

wait "$LG" # gate: loadgen exits nonzero on any lost or failed job

METRICS=$(curl -fsS "$COORD/metrics")
HEDGES=$(awk '$1 == "cluster_hedges_total" { print $2 }' <<<"$METRICS")
HEDGE_WINS=$(awk '$1 == "cluster_hedge_wins_total" { print $2 }' <<<"$METRICS")
grep -E '^cluster_(workers|hedge|proxy|jobs_routed)' <<<"$METRICS"

cleanup
PIDS=()

# --- phase 2: corrupt one stored result, replay over the damaged store ------
VICTIM=$(find "$STORE" -mindepth 2 -name '*.json' -not -path '*/quarantine/*' | sort | sed -n 1p)
[ -n "$VICTIM" ] || { echo "no stored results to corrupt" >&2; exit 1; }
echo "this is not a report" > "$VICTIM"
echo "corrupted $VICTIM"

WORKER=http://127.0.0.1:8480
"$BIN/cpelide-server" -addr 127.0.0.1:8480 -node fresh -store "$STORE" -queue 64 &
PIDS+=($!)
wait_up "$WORKER"

"$BIN/loadgen" -addr "$WORKER" -jobs 200 -distinct 100 -concurrency 16 \
  -scale 0.05 -seed 42 -poll 25ms -out "$SCRATCH/corrupt.json"

CORRUPT=$(curl -fsS "$WORKER/metrics" | awk '$1 == "store_corrupt_total" { print $2 }')
QUARANTINED=$(find "$STORE/quarantine" -name '*.json' 2>/dev/null | wc -l)
RUNS=$(jq -r '.runs' "$SCRATCH/corrupt.json")
[ "${CORRUPT:-0}" = "$QUARANTINED" ] || {
  echo "store_corrupt_total = $CORRUPT but $QUARANTINED files quarantined" >&2; exit 1; }
[ "$QUARANTINED" = 1 ] || { echo "quarantined $QUARANTINED files, want 1" >&2; exit 1; }
[ "$RUNS" = 1 ] || { echo "replay re-simulated $RUNS jobs, want exactly the corrupted 1" >&2; exit 1; }
echo "corruption quarantined and recomputed: corrupt=$CORRUPT quarantined=$QUARANTINED runs=$RUNS"

jq -n --slurpfile crash "$SCRATCH/crash.json" \
      --slurpfile corrupt "$SCRATCH/corrupt.json" \
      --argjson recovery_ms "$RECOVERY_MS" \
      --argjson rejoin_ms "$REJOIN_MS" \
      --argjson kill_at_jobs "$JOBS" \
      --argjson hedges "${HEDGES:-0}" \
      --argjson hedge_wins "${HEDGE_WINS:-0}" \
      '{schema: "chaos/v1",
        recovery_ms: $recovery_ms,
        rejoin_ms: $rejoin_ms,
        kill_at_jobs: $kill_at_jobs,
        hedges: $hedges,
        hedge_wins: $hedge_wins,
        hedge_win_rate: (if $hedges > 0 then $hedge_wins / $hedges else 0 end),
        crash_campaign: $crash[0],
        corruption_campaign: $corrupt[0]}' > "$OUT"
echo "wrote $OUT"
jq '{recovery_ms, rejoin_ms, kill_at_jobs, hedge_win_rate,
     crash_lost: .crash_campaign.lost,
     crash_retries: .crash_campaign.transient_retries,
     corruption_runs: .corruption_campaign.runs}' "$OUT"
