#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash fambench/run.sh --workload oneshot-skyline --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (compiler cache, module cache, toolchain
# telemetry, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/fambench" && go build -o "$build/fambench" .)
exec "$build/fambench" "$@"
