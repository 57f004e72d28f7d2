#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument passes through (--workload, --seed, --seconds, --trace).
# Build cache, binary and results stay under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload ddos-overlay --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod" \
	GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$root/.bench_build/perfbench" . >&2
exec "$root/.bench_build/perfbench" "$@"
