GO ?= go

.PHONY: all build test race lint cpelint fmt bench bench-gate paper-digests cluster loadgen cluster-smoke chaos-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector, mirroring CI: the
# farm's single-flight dedup and backpressure, the event engine the whole
# simulation core schedules through, and the HTTP server's drain path.
race:
	$(GO) test -race -count=1 -timeout 15m ./internal/farm/... ./internal/event/... ./internal/server/... ./internal/cluster/...

# lint = the repo's static gates: the cpelint pass suite (DESIGN §12), go
# vet, and gofmt. staticcheck runs in CI where it can be installed.
lint: cpelint
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

cpelint:
	$(GO) run ./cmd/cpelint ./...

fmt:
	gofmt -w .

# A local 3-worker cluster behind a coordinator on :8070, persistent store
# in /tmp/cpelide-store (override with CPELIDE_STORE). Foreground; Ctrl-C
# tears it down. Drive it with `make loadgen` from another shell.
cluster:
	@bash scripts/cluster_up.sh

# A reproducible 200-job campaign against the local cluster (or any server:
# LOADGEN_ADDR=http://host:8080 make loadgen).
loadgen:
	$(GO) run ./cmd/loadgen -addr $(or $(LOADGEN_ADDR),http://localhost:8070) \
		-jobs 200 -distinct 100 -seed 42 -scale 0.05

# The CI cluster gate, locally: 3 workers, a 200-job campaign with a worker
# crashed mid-run (zero lost jobs required), and a restart-from-store replay
# that must re-simulate nothing. Writes BENCH_cluster.json.
cluster-smoke:
	@bash scripts/cluster_smoke.sh

# The CI chaos gate, locally: SIGKILL the coordinator mid-campaign, restart
# it with no state (workers rejoin by heartbeat within 5 s, zero lost jobs),
# corrupt one store file (quarantined + recomputed, store_corrupt_total ==
# quarantine count). Writes BENCH_chaos.json.
chaos-smoke:
	@bash scripts/chaos_smoke.sh

# Re-measure the committed performance baseline (run on a quiet machine).
bench:
	$(GO) run ./cmd/bench -out BENCH_core.json

# The CI whole-matrix lock, locally: one SHA-256 per simulated run of
# paper-figures -scale 0.1, diffed against testdata/paper_digests.json.
paper-digests:
	@bash scripts/paper_digests.sh

# The CI regression gate, locally: measure now, compare the
# machine-independent metrics against the committed baseline.
bench-gate:
	$(GO) run ./cmd/bench -benchtime 200ms -out /tmp/BENCH_current.json
	$(GO) run ./cmd/bench -against /tmp/BENCH_current.json -baseline BENCH_core.json -metrics allocs,cycles,accesses -max-regress 0.10
