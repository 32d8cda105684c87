#!/usr/bin/env bash
# Builds perfbench from the sources in the current checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, and the Go toolchain never downloads anything.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root: go.mod, internal/serve and perfbench/go.mod are needed" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTMPDIR="$root/.bench_build/gotmp"
mkdir -p "$GOTMPDIR"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
