#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go build cache, Go's telemetry directory, the binary) stays
# under .bench_build in the checkout; the benchmark's own files go to
# benchmark/out. Run from the repository root:
#
#   bash benchmark/run.sh --workload smr-bank-write --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/shadowdb-benchmark" .
exec "$build/shadowdb-benchmark" "$@"
