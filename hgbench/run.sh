#!/usr/bin/env bash
# Builds hgbench from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash hgbench/run.sh --workload paper-flat --seed 1 --seconds 20 --trace 0
#   bash hgbench/run.sh --seed 1          # all four workloads
#
# The Go build cache, temporary files and everything the benchmark
# writes stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go -C hgbench build -o "$out/hgbench" .
exec "$out/hgbench" -build "$out" "$@"
