#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is run from and runs it with
# the arguments given (see BENCHMARK.json and README.md). Everything the
# build writes — the binary, Go's build cache and temporary files — goes
# under .bench_build, so a run touches nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
