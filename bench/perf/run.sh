#!/usr/bin/env bash
# Builds bench/perf from source into .bench_build/ and runs it with the
# arguments given. This is the command BENCHMARK.json names; run it from the
# root of a checkout. Everything the build and the run write (Go build cache,
# temporary files, results, traces) stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/perf" ./bench/perf
exec "$build/perf" -out "$build/out" "$@"
