#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload longread_p --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build writes stays in
# .bench_build/ under the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go tool keeps its cache, module path and (via XDG_*) its telemetry
# and config files under .bench_build/, and never downloads anything.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/benchmark" && go build -o "$out/genasm-bench" .)
exec "$out/genasm-bench" "$@"
