#!/usr/bin/env bash
# The CI jobs, defined once. .github/workflows/ci.yml runs each of its jobs
# as `bash scripts/ci.sh <job>`; `make ci` runs them all on a local box.
#
#   bash scripts/ci.sh                  # every job, in the workflow's order
#   bash scripts/ci.sh test lint        # the named jobs only
#
# The jobs are the job_* functions, run in JOBS order. Each job's output
# goes to a log (and also to the terminal when one job is named); the run
# ends with one PASS/FAIL line per job and exits 1 if any failed. Outputs
# land at the repo root, where the workflow uploads them: BENCH_cluster.json
# (server-smoke; it is committed, so a local run rewrites it), cover.out
# (coverage), BENCH_crosscheck.json (crosscheck) and BENCH_current.json
# (bench-gate).
#
# Every go test without the race detector runs under -timeout 5m (the whole
# module's tests take about 50 s on 2 cores), so a hang fails its job in
# minutes, not after go test's default 10.
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS=(test paper-digests lint staticcheck cpelint server-smoke fuzz coverage crosscheck bench-gate)
PLANTED=internal/stats/zz_planted_violation.go

# Each job runs in a subshell under set -e: its first failing command fails
# the job.

job_test() {
  go build ./...
  go vet ./...
  go test -timeout 5m ./...
  # perfbench/ is a nested module, so the root build never compiles it; a
  # library change that breaks the benchmark fails here.
  (cd perfbench && go vet ./... && go test -timeout 5m .)
  # The full root-package suite (fuzzer + 24-benchmark integration) exceeds
  # go test's default timeout under the race detector.
  go test -race -short -timeout 20m ./...
  # The concurrency-heavy packages always run under the race detector
  # without -short: single-flight dedup, burst backpressure, drain, the held
  # result fetch (TestResultHeldUntilTerminal).
  go test -race -count=1 -timeout 15m ./internal/farm/... ./internal/server/...
  # The generated-DAG report lock (testdata/report_digests.json), the
  # 500-DAG every-launch-dispatched test, and the machine-reuse equivalence tests
  # (fresh vs reused machine, and four concurrent callers under a lease
  # check) under the race detector.
  go test -race -count=1 -timeout 15m -run 'TestGeneratedDAGReports|TestMachineReuse' .
  go test -race -count=1 -timeout 15m -run TestRunDispatchesEveryLaunch ./internal/cp/
}

# One SHA-256 per simulated run of the reduced-scale paper matrix (912 runs),
# diffed against testdata/paper_digests.json; a mismatch lists the farm job
# keys whose reports changed. The same run's figures must equal
# testdata/paper_figures.json. This is the byte-identity bar for every
# refactor, and it sees the cache replacement policy (an MRU-eviction mutant
# changes 20 runs, DESIGN §16 row 7).
job_paper_digests() {
  bash scripts/paper_digests.sh
}

job_lint() {
  go vet ./...
  local out
  out=$(gofmt -l .)
  if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    return 1
  fi
}

# The workflow installs staticcheck v0.5.1 (staticcheck 2024.1.1), the last
# release that builds with the go.mod toolchain (Go 1.22); 2025.1 needs Go
# 1.23. The install needs the network, so on an offline box this job fails
# with "not installed" rather than being skipped.
job_staticcheck() {
  local bin
  bin=$(command -v staticcheck) || bin="$(go env GOPATH | cut -d: -f1)/bin/staticcheck"
  if [ ! -x "$bin" ]; then
    echo "staticcheck: not installed (looked on PATH and in \$(go env GOPATH)/bin)"
    return 1
  fi
  "$bin" ./...
}

# Every cpelint pass (DESIGN §12) over every package, cmd/ and test files
# included; then a planted violation must fail the lint, which guards
# against the suite silently matching nothing.
job_cpelint() {
  go run ./cmd/cpelint ./...
  cat >"$PLANTED" <<'EOF'
package stats

import "time"

// PlantedViolation exists only to prove cpelint fails the build.
func PlantedViolation() time.Time { return time.Now() }
EOF
  if go run ./cmd/cpelint ./internal/stats/; then
    echo "cpelint passed a planted determinism violation"
    return 1
  fi
  rm "$PLANTED"
}

# A report arrives within 3 result requests, a failed job answers 500
# job_failed and is accepted again, 17 chiplets is 400, SIGTERM drains with
# exit 0; a 200-job loadgen campaign completes 200/200 cold and again on a
# fresh server over the same store with zero simulations and lru_answers
# > 0; a corrupted store file is quarantined (store_corrupt_total ==
# quarantined count == 1) and exactly that job re-simulates.
job_server_smoke() {
  bash scripts/server_smoke.sh
}

# go test -fuzz resolves the corpus relative to the package directory, so
# each target runs from its own package.
job_fuzz() {
  (cd internal/mem && go test -timeout 5m -run '^$' -fuzz '^FuzzRangeSet$' -fuzztime=30s .)
  go test -timeout 5m -run '^$' -fuzz '^FuzzCrosscheckDAG$' -fuzztime=30s .
}

# Every test under -short counts toward ./internal/... statements, with a
# total gate and floors for internal/core and internal/mem (see the script).
job_coverage() {
  bash scripts/coverage.sh
}

# Differential campaign: 500 DAGs x 4 protocols against the consistency
# oracle, plus the mutation teeth.
job_crosscheck() {
  go build -o "$TMP/crosscheck" ./cmd/crosscheck
  "$TMP/crosscheck" -n 500 -mutate all -mutate-n 100 -json BENCH_crosscheck.json
}

job_bench_gate() {
  # A short benchtime keeps the job quick; allocs/op is stable at 200ms and
  # is the same on every machine, so it alone is gated against the committed
  # file: ns_per_op on shared runners is noise, and the six runs' reports
  # are locked byte for byte by paper-digests. The gate's planted-regression
  # self-test is go test ./cmd/bench.
  go run ./cmd/bench -benchtime 200ms -out BENCH_current.json
  go run ./cmd/bench -against BENCH_current.json -baseline BENCH_core.json -metrics allocs -max-regress 0.10
  # The documented function-level recipe (README "Metrics & profiling",
  # DESIGN §13) must attribute time to at least one function under
  # repro/internal/, so it cannot silently rot.
  go test -timeout 5m -run '^$' -bench 'SimulatorThroughput/CPElide' -benchtime 1s -o "$TMP/repro.test" -cpuprofile "$TMP/cpu.out" .
  local n
  n=$(go tool pprof -top -focus 'repro/internal/' "$TMP/repro.test" "$TMP/cpu.out" | grep -cE '%[[:space:]]+repro/internal/' || true)
  echo "functions under repro/internal/: $n"
  [ "$n" -ge 1 ]
}

run=("$@")
[ ${#run[@]} -gt 0 ] || run=("${JOBS[@]}")
for job in "${run[@]}"; do
  if [[ " ${JOBS[*]} " != *" $job "* ]]; then
    echo "ci: unknown job $job (jobs: ${JOBS[*]})" >&2
    exit 2
  fi
done

LOGS=$(mktemp -d)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP" "$PLANTED"' EXIT
failed=0
summary=()
for job in "${run[@]}"; do
  log="$LOGS/$job.log"
  start=$SECONDS
  echo "ci: running $job (log $log)"
  if [ ${#run[@]} -eq 1 ]; then
    (set -e; "job_${job//-/_}") 2>&1 | tee "$log"
  else
    (set -e; "job_${job//-/_}") >"$log" 2>&1
  fi
  rc=${PIPESTATUS[0]}
  status=PASS
  if [ "$rc" -ne 0 ]; then
    status=FAIL
    failed=1
    [ ${#run[@]} -eq 1 ] || tail -n 20 "$log"
  fi
  line=$(printf 'ci: %s %-14s %4ds  %s' "$status" "$job" $((SECONDS - start)) "$log")
  [ "$status" = PASS ] || line+="  ($(tail -n 1 "$log"))"
  summary+=("$line")
done
printf '%s\n' "${summary[@]}"
exit "$failed"
