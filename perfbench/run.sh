#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload petstore-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, telemetry, binary, profiles, spans, results) stays
# under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
