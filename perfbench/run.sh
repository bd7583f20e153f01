#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload figs-single --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# Go build cache, the binary, scratch directories and result records. The program runs with the Go
# runtime's own defaults, so GOGC, GOMEMLIMIT and GOMAXPROCS are unset.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
    exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
    XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" TMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOFLAGS= GOWORK=off
unset GOGC GOMEMLIMIT GOMAXPROCS GODEBUG
(cd perfbench && go build -o "$build/perfbench" ./cmd/perfbench) >&2
exec "$build/perfbench" run "$@"
