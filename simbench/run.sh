#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it; every argument
# is passed on (see main.go):
#
#   bash simbench/run.sh --workload fig7-pagecache --seed 1 --seconds 32 --trace 0
#
# The build, its Go caches and a traced run's spans and profiles all stay
# under .bench_build/ in the repository root. Nothing is downloaded: the
# benchmark module depends only on the repository's own module.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/simbench" .) >&2
exec "$build/simbench" -out "$build/simbench-out" "$@"
