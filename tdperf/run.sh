#!/usr/bin/env bash
# Builds the tdperf benchmark from this checkout's sources and runs it.
#
#   bash tdperf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch store files and spans.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd tdperf && go build -o "$out/tdperf" .)
exec "$out/tdperf" --dir "$out" "$@"
