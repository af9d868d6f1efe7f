#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the root of a sprofile checkout:
#
#   bash benchmark/run.sh --workload ingest-bulk-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# WAL directories, traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the root of a sprofile checkout (no sources under $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off GOWORK=off
(cd "$root/benchmark" && go build -o "$build/sprofile-bench" .)
exec "$build/sprofile-bench" "$@"
