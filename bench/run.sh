#!/usr/bin/env bash
# The benchmark's entry point for BENCHMARK.json: builds the program from
# source inside the checkout (build cache included) and runs it from the
# checkout's root with the arguments given.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" -out bench/out "$@"
