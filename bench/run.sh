#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload churn_shred --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# and the binary go under .bench_build/ in the repository root. The binary
# is built with the same PGO profile the experiments CLI ships with, so the
# benchmark measures the code users run.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -pgo=../cmd/experiments/default.pgo -o "$build/bench" .)
exec "$build/bench" "$@"
