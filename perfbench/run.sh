#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build artifact (compiler cache,
# temporary files, the binary) stays under .bench_build/ in the current
# directory; build output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
