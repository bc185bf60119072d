#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload road-miss --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, telemetry,
# temporary files, the binary, scratch graphs, spans) stays under
# .bench_build in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
