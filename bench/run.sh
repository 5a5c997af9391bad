#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload mysql8-eager --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artefact (Go build cache,
# temporary files, the binary) stays under .bench_build/ in the working
# directory, and the build never touches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/owbench" .)
exec "$build/owbench" "$@"
