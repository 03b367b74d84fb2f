#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload fig-matrix --seed 1 --seconds 20 --trace 0
#
# Every file the toolchain or the benchmark writes stays under .bench_build/
# in the checkout: the Go build cache and scratch space, the binary, and the
# span dumps of traced runs. No module is ever downloaded (GOPROXY=off): the
# benchmark module only depends on the repository module next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out" "$root/.bench_build/tmp"

export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
