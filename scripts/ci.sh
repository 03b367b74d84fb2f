#!/usr/bin/env bash
# Runs every job of .github/workflows/ci.yml on the local box, in the
# workflow's order, and prints one PASS/FAIL line per job; exits nonzero if
# any job failed. Each job's output goes to a log whose path the summary
# prints. The commands mirror the workflow's steps (change both together),
# with two local differences: the fuzz targets run 10 s each instead of
# 30 s, and staticcheck must already be on PATH, since the workflow
# installs it from the network. Like `make server-smoke`, the server-smoke
# job rewrites BENCH_cluster.json. Run with `make ci`.
set -uo pipefail

cd "$(dirname "$0")/.."
LOGS=$(mktemp -d)
TMP=$(mktemp -d)
PLANTED=internal/stats/zz_planted_violation.go
trap 'rm -rf "$TMP" "$PLANTED"' EXIT

job_test() {
  go build ./... &&
    go vet ./... &&
    go test ./... &&
    (cd perfbench && go vet ./... && go test .) &&
    go test -race -short -timeout 20m ./... &&
    go test -race -count=1 -timeout 15m ./internal/farm/... ./internal/event/... ./internal/server/... &&
    go test -race -count=1 -timeout 15m -run 'TestCalendarEquivalence|TestMachineReuse' . &&
    go test -race -count=1 -timeout 15m -run TestRunDrainsCalendar ./internal/cp/
}

job_paper_digests() {
  bash scripts/paper_digests.sh
}

# staticcheck runs last so that, where it is missing, vet and gofmt have
# still been checked.
job_lint() {
  go vet ./... || return 1
  local out
  out=$(gofmt -l .)
  if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    return 1
  fi
  if ! command -v staticcheck >/dev/null; then
    echo "staticcheck is not on PATH (CI installs it with: go install honnef.co/go/tools/cmd/staticcheck@v0.5.1)"
    return 1
  fi
  staticcheck ./...
}

job_cpelint() {
  go run ./cmd/cpelint ./... || return 1
  cat >"$PLANTED" <<'EOF'
package stats

import "time"

// PlantedViolation exists only to prove cpelint fails the build.
func PlantedViolation() time.Time { return time.Now() }
EOF
  go run ./cmd/cpelint ./internal/stats/
  local rc=$?
  rm "$PLANTED"
  [ "$rc" -ne 0 ] || { echo "cpelint passed a planted determinism violation"; return 1; }
}

job_server_smoke() {
  bash scripts/server_smoke.sh
}

job_bench_farm() {
  go test -run '^$' -bench '^BenchmarkFigure8$' -short -benchtime=1x -json . >"$TMP/BENCH_farm.json"
}

job_fuzz() {
  (cd internal/mem && go test -run '^$' -fuzz '^FuzzRangeSet$' -fuzztime=10s .) &&
    go test -run '^$' -fuzz '^FuzzCrosscheckDAG$' -fuzztime=10s .
}

job_coverage() {
  bash scripts/coverage.sh
}

job_crosscheck() {
  go build -o "$TMP/crosscheck" ./cmd/crosscheck &&
    "$TMP/crosscheck" -n 500 -mutate all -mutate-n 100 -json "$TMP/BENCH_crosscheck.json"
}

job_bench_gate() {
  local cur="$TMP/BENCH_current.json"
  go run ./cmd/bench -benchtime 200ms -out "$cur" &&
    go run ./cmd/bench -against "$cur" -baseline BENCH_core.json -metrics allocs,cycles,accesses -max-regress 0.10 || return 1
  if go run ./cmd/bench -against "$cur" -baseline "$cur" -plant 1.25; then
    echo "bench gate passed a planted 25% regression"
    return 1
  fi
  if go run ./cmd/bench -against "$cur" -baseline "$cur" -metrics allocs -plant 1.25; then
    echo "bench gate passed a planted 25% allocs regression"
    return 1
  fi
  go test -run '^$' -bench 'SimulatorThroughput/CPElide' -benchtime 1s -o "$TMP/repro.test" -cpuprofile "$TMP/cpu.out" . || return 1
  local n
  n=$(go tool pprof -top -focus 'repro/internal/' "$TMP/repro.test" "$TMP/cpu.out" | grep -cE '%[[:space:]]+repro/internal/' || true)
  echo "functions under repro/internal/: $n"
  [ "$n" -ge 1 ]
}

failed=0
summary=()
for job in test paper-digests lint cpelint server-smoke bench-farm fuzz coverage crosscheck bench-gate; do
  log="$LOGS/$job.log"
  start=$SECONDS
  echo "ci: running $job (log $log)"
  if "job_${job//-/_}" >"$log" 2>&1; then
    status=PASS
  else
    status=FAIL
    failed=1
    tail -n 20 "$log"
  fi
  summary+=("$(printf 'ci: %s %-14s %4ds  %s' "$status" "$job" $((SECONDS - start)) "$log")")
done
printf '%s\n' "${summary[@]}"
exit "$failed"
