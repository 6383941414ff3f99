#!/usr/bin/env bash
# Builds the e2ebench binary from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, Go's own config/telemetry files) stays under .bench_build.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench-bin" .)
exec "$out/e2ebench-bin" "$@"
