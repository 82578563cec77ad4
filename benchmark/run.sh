#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and runs it
# with the caller's flags, keeping every build output, cache and temp
# file inside the checkout (.bench_build). `go run ./benchmark` does the
# same with the go tool's own cache and temp locations.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
