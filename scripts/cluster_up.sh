#!/usr/bin/env bash
# Start a local experiment cluster: a coordinator on :8070 fronting three
# cpelide-server workers on :8081-:8083 sharing one persistent store
# directory (CPELIDE_STORE, default /tmp/cpelide-store — results survive
# restarts). Runs in the foreground; Ctrl-C tears everything down.
#
#   make cluster          # this script
#   make loadgen          # a 200-job campaign against it, from another shell
set -euo pipefail

cd "$(dirname "$0")/.."
STORE=${CPELIDE_STORE:-/tmp/cpelide-store}
BIN=$(mktemp -d)
PIDS=()
cleanup() { for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; }
trap cleanup EXIT INT TERM

go build -o "$BIN/" ./cmd/cpelide-coordinator ./cmd/cpelide-server

"$BIN/cpelide-coordinator" -addr :8070 &
PIDS+=($!)
for _ in $(seq 1 50); do
  curl -s -o /dev/null http://localhost:8070/healthz && break # any HTTP answer, even 503
  sleep 0.2
done

for i in 1 2 3; do
  "$BIN/cpelide-server" -addr ":808$i" -coordinator http://localhost:8070 \
    -advertise "http://localhost:808$i" -node "w$i" -store "$STORE" &
  PIDS+=($!)
done

echo "cluster up: coordinator http://localhost:8070, workers w1-w3, store $STORE"
echo "try: go run ./cmd/loadgen -addr http://localhost:8070 -jobs 200 -distinct 100"
wait
