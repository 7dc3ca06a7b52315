#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument is passed on. Run from the repository root:
#
#   bash fleetbench/run.sh --workload city-5k --seed 42 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the toolchain's telemetry counters
# (kept under XDG_CONFIG_HOME) and the binary stay under .bench_build/ in
# the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/fleetbench"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

(cd "$root/fleetbench" && go build -o "$out/fleetbench" .) >&2
exec "$out/fleetbench" "$@"
