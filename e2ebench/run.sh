#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout (the Go
# build cache lives there too, so nothing is written outside the checkout)
# and runs it with the caller's arguments:
#
#   bash e2ebench/run.sh --workload serial_uniform --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
# Everything Go writes stays under .bench_build, whatever HOME is.
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOTOOLCHAIN=local
go build -C "$here" -o "$out/e2ebench" .
exec "$out/e2ebench" -out "$here/out" -scratch "$out" "$@"
