#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Call it from the
# repository root; every argument is passed on to the program:
#
#   bash perfbench/run.sh --workload repro-sweep --seed 20070612 --seconds 15 --trace 0
#
# Build caches, temporary files and the binary stay under .bench_build
# in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
PERFBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
  PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT
exec "$build/perfbench" "$@"
