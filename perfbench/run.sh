#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload suite-flat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
