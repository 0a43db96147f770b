#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# repository root. Every file the toolchain writes (build cache, binary)
# stays under .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/pbecc-benchmark" .
cd "$root"
exec "$build/pbecc-benchmark" "$@"
