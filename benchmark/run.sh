#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Build outputs, Go's caches and its temporary files all stay
# under .bench_build in the checkout; nothing outside it is written.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

# Always build: with a warm cache this is a fraction of a second, and
# the binary can never be older than the source it claims to measure.
(cd "$here" && go build -o "$build/harmonia-benchmark" .)

cd "$root"
exec "$build/harmonia-benchmark" "$@"
