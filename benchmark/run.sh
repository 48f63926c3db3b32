#!/usr/bin/env bash
# Entry point named by BENCHMARK.json, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the runner and the ladder from source into .bench_build/ at the
# checkout root (Go's build cache goes there too, so nothing is written
# outside the checkout), then runs the runner, whose last line of output is
# the result. The ladder is allowed not to build: the runner then reports the
# per-layer rungs as unavailable and still measures end to end.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/benchmark" .
go build -o "$build/ladder" ./ladder 2>"$build/ladder.build.log" || rm -f "$build/ladder"
exec "$build/benchmark" -ladder "$build/ladder" "$@"
