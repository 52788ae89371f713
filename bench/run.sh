#!/usr/bin/env bash
# The benchmark's command: build bench/ from source inside the checkout and
# run it with the arguments given. The Go build cache and temporary files
# are kept under .bench_build so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
