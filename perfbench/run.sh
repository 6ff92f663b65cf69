#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the checkout root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the
# binary, the runs' state directories, and traced runs' span files.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
if [[ ! -f "$bench/go.mod" ]]; then
	echo "run.sh: run from the checkout root (no perfbench/go.mod here)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
