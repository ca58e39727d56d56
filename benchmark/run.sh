#!/usr/bin/env bash
# Builds the muxwise benchmark from the checkout it sits in and runs it:
#
#   bash benchmark/run.sh --workload engine-sharegpt --seed 1 --seconds 20 --trace 0
#
# Run from the checkout root. Everything the build writes (the Go build
# cache and the binary) stays under .bench_build/ in the checkout, and no
# module is fetched: the benchmark imports only the standard library and
# the muxwise module beside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$out/muxwise-bench" .
cd "$root"
exec "$out/muxwise-bench" -out "$out/trace" "$@"
