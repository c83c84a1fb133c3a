#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root; every argument is passed to the benchmark binary:
#
#   bash benchmark/run.sh --workload decompose-giant --seed 43 --seconds 20 --trace 0
#
# The binary, the Go build cache and all scratch files stay under
# .bench_build/ in the current directory, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -C benchmark -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
