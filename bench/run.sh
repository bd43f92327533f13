#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it. Called
# from the root of a checkout as `bash bench/run.sh --workload <name> ...`.
# The Go build cache and temporary files are kept under .bench_build, so
# nothing is read or written outside the checkout; the first call pays for
# the build, later calls find it cached.
set -euo pipefail
root=$PWD
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o "$build/feisu-bench" .
exec "$build/feisu-bench" "$@"
