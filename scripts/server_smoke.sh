#!/usr/bin/env bash
# Server smoke: real cpelide-server processes, real signals. Gates, in order:
#
#   1. API: a submit's report arrives within 3 result requests (the result
#      GET holds a pending job server-side); a failed job answers 500
#      job_failed and its resubmit is accepted again; 17 chiplets is 400;
#      SIGTERM drains and exits 0.
#   2. One-node cold: a 200-job loadgen campaign (100 distinct bodies) over
#      a fresh store completes 200/200 (loadgen exits nonzero on any lost or
#      failed job), then the server drains on SIGTERM. Runs, farm hits, LRU
#      answers and joins add up to every submit.
#   3. Restart from store: a fresh server over the same store replays the
#      campaign 200/200 with zero simulations, every submit answered from
#      the LRU it warm-started from disk (lru_answers > 0).
#   4. Store corruption: one stored result is overwritten with garbage and a
#      fresh server replays the campaign 200/200. store_corrupt_total equals
#      the quarantined file count, which is 1, and exactly that job
#      re-simulates (runs == 1).
#
# Writes BENCH_cluster.json (schema cluster/v2) with the one_node_cold and
# restart_from_store campaign results.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT=BENCH_cluster.json
BIN=$(mktemp -d)
STORE=$(mktemp -d)
SCRATCH=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$BIN" "$STORE" "$SCRATCH"
}
trap cleanup EXIT

go build -o "$BIN/" ./cmd/cpelide-server ./cmd/loadgen

start_server() { # port [server flags...]; sets SRV and URL
  local port=$1
  shift
  "$BIN/cpelide-server" -addr "127.0.0.1:$port" -queue 64 "$@" &
  SRV=$!
  PIDS+=("$SRV")
  URL="http://127.0.0.1:$port"
  for _ in $(seq 1 50); do
    curl -fsS -o /dev/null "$URL/healthz" 2>/dev/null && return
    sleep 0.2
  done
  echo "server never became healthy at $URL" >&2
  exit 1
}

# Every phase's drain finishes in under a second (measured on 2 cores); one
# that outlasts DRAIN_SECS is a hang, so the server is killed and the job
# fails naming the phase instead of waiting forever.
DRAIN_SECS=20
drain() { # phase; SIGTERM must drain and exit 0 within DRAIN_SECS
  local start=$SECONDS
  kill -TERM "$SRV"
  while kill -0 "$SRV" 2>/dev/null; do
    if [ $((SECONDS - start)) -ge "$DRAIN_SECS" ]; then
      kill -9 "$SRV" 2>/dev/null || true
      echo "$1: server still draining ${DRAIN_SECS}s after SIGTERM; killed it" >&2
      exit 1
    fi
    sleep 0.1
  done
  wait "$SRV"
  echo "$1: drained in $((SECONDS - start))s"
}

campaign() { # out-file
  "$BIN/loadgen" -addr "$URL" -jobs 200 -distinct 100 -concurrency 16 \
    -scale 0.05 -seed 42 -poll 25ms -out "$1"
}

# --- phase 1: job API and graceful drain -------------------------------------
start_server 8321
RES="$SCRATCH/res"
ID=$(curl -fsS -X POST "$URL/v1/jobs" \
  -d '{"workload": "square", "scale": 0.1, "protocol": "cpelide"}' | jq -r .id)
echo "job id: $ID"
for i in 1 2 3; do
  CODE=$(curl -sS -o "$RES" -w '%{http_code}' "$URL/v1/jobs/$ID/result")
  echo "result request $i: $CODE"
  [ "$CODE" = 202 ] || break
done
[ "$CODE" = 200 ] || { echo "no report after $i requests (last $CODE)"; cat "$RES"; exit 1; }
jq -e '.Workload == "square" and .Cycles > 0' "$RES" >/dev/null
BAD=$(curl -fsS -X POST "$URL/v1/jobs" -d '{"workload": "nope"}' | jq -r .id)
for i in 1 2 3; do
  CODE=$(curl -sS -o "$RES" -w '%{http_code}' "$URL/v1/jobs/$BAD/result")
  [ "$CODE" = 202 ] || break
done
[ "$CODE" = 500 ] || { echo "failed job result: $CODE"; cat "$RES"; exit 1; }
jq -e '.code == "job_failed"' "$RES" >/dev/null
CODE=$(curl -sS -o "$RES" -w '%{http_code}' -X POST "$URL/v1/jobs" -d '{"workload": "nope"}')
[ "$CODE" = 202 ] || { echo "failed job resubmit: $CODE"; cat "$RES"; exit 1; }
CODE=$(curl -sS -o "$RES" -w '%{http_code}' -X POST "$URL/v1/jobs" \
  -d '{"workload": "square", "chiplets": 17}')
[ "$CODE" = 400 ] || { echo "17-chiplet submit: $CODE"; cat "$RES"; exit 1; }
curl -fsS "$URL/v1/stats"
drain "phase 1 (api)"
echo "api checks passed; drained"

# --- phase 2: one-node cold campaign over a fresh store ----------------------
start_server 8322 -store "$STORE"
campaign "$SCRATCH/one_node.json"
drain "phase 2 (cold campaign)"
# Every submit the server answered is one of: a simulation, a farm cache,
# store or dedup hit, an LRU answer, or a join onto a queued/running job.
ANSWERED=$(jq '.runs + .store_hits + .cache_hits + .dedup_waits + .lru_answers + .joins' "$SCRATCH/one_node.json")
SUBMITS=$(jq '.jobs + .resubmits' "$SCRATCH/one_node.json")
[ "$ANSWERED" = "$SUBMITS" ] || {
  echo "cold campaign accounts for $ANSWERED of $SUBMITS submits" >&2; exit 1; }
echo "cold campaign: all $SUBMITS submits accounted for"

# --- phase 3: a fresh server over the same store -----------------------------
start_server 8323 -store "$STORE"
campaign "$SCRATCH/restart.json"
drain "phase 3 (restart from store)"
RUNS=$(jq -r .runs "$SCRATCH/restart.json")
LRU=$(jq -r .lru_answers "$SCRATCH/restart.json")
[ "$RUNS" = 0 ] || { echo "restart campaign re-simulated $RUNS jobs; the store should serve all" >&2; exit 1; }
[ "$LRU" -gt 0 ] || { echo "restart campaign: lru_answers = $LRU, want > 0" >&2; exit 1; }
echo "restart from store: runs=$RUNS lru_answers=$LRU"

# --- phase 4: corrupt one stored result, replay over the damaged store -------
VICTIM=$(find "$STORE" -mindepth 2 -name '*.json' -not -path '*/quarantine/*' | sort | sed -n 1p)
[ -n "$VICTIM" ] || { echo "no stored results to corrupt" >&2; exit 1; }
echo "this is not a report" >"$VICTIM"
echo "corrupted $VICTIM"
start_server 8324 -store "$STORE"
campaign "$SCRATCH/corrupt.json"
CORRUPT=$(curl -fsS "$URL/metrics" | awk '$1 == "store_corrupt_total" { print $2 }')
drain "phase 4 (corrupt store)"
QUARANTINED=$(find "$STORE/quarantine" -name '*.json' 2>/dev/null | wc -l)
RUNS=$(jq -r .runs "$SCRATCH/corrupt.json")
[ "${CORRUPT:-0}" = "$QUARANTINED" ] || {
  echo "store_corrupt_total = $CORRUPT but $QUARANTINED files quarantined" >&2; exit 1; }
[ "$QUARANTINED" = 1 ] || { echo "quarantined $QUARANTINED files, want 1" >&2; exit 1; }
[ "$RUNS" = 1 ] || { echo "replay re-simulated $RUNS jobs, want exactly the corrupted 1" >&2; exit 1; }
echo "corruption quarantined and recomputed: corrupt=$CORRUPT quarantined=$QUARANTINED runs=$RUNS"

jq -n --slurpfile one "$SCRATCH/one_node.json" \
      --slurpfile restart "$SCRATCH/restart.json" \
      '{schema: "cluster/v2",
        one_node_cold: $one[0],
        restart_from_store: $restart[0]}' >"$OUT"
echo "wrote $OUT"
jq '{one_node_jps: .one_node_cold.throughput_jps,
     restart_jps: .restart_from_store.throughput_jps,
     restart_runs: .restart_from_store.runs,
     restart_lru_answers: .restart_from_store.lru_answers}' "$OUT"
