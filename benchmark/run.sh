#!/usr/bin/env bash
# Builds the benchmark from the tree and runs it with the arguments given.
# Everything the go tool writes (build cache, module cache, temporary files,
# binaries) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
