GO ?= go

.PHONY: all build test race lint cpelint fmt bench bench-gate paper-digests loadgen server-smoke ci

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector, mirroring CI: the
# farm's single-flight dedup and backpressure, the event engine the whole
# simulation core schedules through, and the HTTP server's drain path.
race:
	$(GO) test -race -count=1 -timeout 15m ./internal/farm/... ./internal/event/... ./internal/server/...

# lint = the repo's static gates: cpelint's three passes (DESIGN §12), go
# vet, and gofmt. staticcheck needs the network to install, so only CI runs
# it (pinned to v0.5.1 there).
lint: cpelint
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

cpelint:
	$(GO) run ./cmd/cpelint ./...

fmt:
	gofmt -w .

# A reproducible 200-job campaign against a running cpelide-server
# (LOADGEN_ADDR=http://host:port make loadgen; default localhost:8080).
loadgen:
	$(GO) run ./cmd/loadgen -addr $(or $(LOADGEN_ADDR),http://localhost:8080) \
		-jobs 200 -distinct 100 -seed 42 -scale 0.05

# The CI server gate, locally: job API checks and a graceful drain, a
# 200-job campaign cold and again after a restart over the same store
# (zero simulations), and a corrupted store file quarantined with exactly
# one re-simulation. Writes BENCH_cluster.json.
server-smoke:
	@bash scripts/server_smoke.sh

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

# Every CI job in the workflow's order, one PASS/FAIL line each; exits
# nonzero if any job fails. Rewrites BENCH_cluster.json (server-smoke).
ci:
	@bash scripts/ci.sh
