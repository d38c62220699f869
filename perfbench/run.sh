#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload plan-2k --seed 1 --seconds 35 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
