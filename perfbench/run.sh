#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload suite-opt --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  The Go build cache, the binary and
# the service's disk caches all live under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)

run=$(mktemp -d "$build/run/XXXXXX")
trap 'rm -rf "$run"' EXIT
"$build/perfbench" --workdir "$run" "$@"
