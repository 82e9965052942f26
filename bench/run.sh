#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload ingest --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh compare bench/results/seed1-a.json bench/results/seed1-b.json
#
# Everything the build and the runs write (Go build cache, binary, data
# directories, spans) stays under .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
