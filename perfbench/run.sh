#!/usr/bin/env bash
# Builds the benchmark and cameod from source and runs one workload:
#
#   bash perfbench/run.sh --workload paper|serve|fleet --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache,
# result caches and traces all stay under .bench_build/perfbench.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/bin/perfbench" .
go build -C perfbench -o "$out/bin/cameod" cameo/cmd/cameod
exec "$out/bin/perfbench" -cameod "$out/bin/cameod" "$@"
