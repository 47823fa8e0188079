#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout root. Build products and the Go build cache
# stay under .bench_build/ so nothing is written outside the checkout.
#
#   bash palubench/run.sh --workload suite-warm --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/palubench" && go build -o "$build/palubench" .)
cd "$root"
exec "$build/palubench" "$@"
