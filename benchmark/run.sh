#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments it was given (BENCHMARK.json's command). Build outputs and the Go
# build cache stay under .bench_build/ so nothing is written outside the
# checkout; in a directory without the module's go.mod the build — and so this
# script — fails before anything is printed.
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
