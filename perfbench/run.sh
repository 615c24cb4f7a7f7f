#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#   bash perfbench/run.sh --workload admission --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output, the Go build cache and
# traced runs' span files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
