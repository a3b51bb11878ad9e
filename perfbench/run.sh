#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build):
# the Go build cache, the binary, and the run's scratch files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/gomod
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

# The module replaces repro with the parent directory, so the build fails
# (and nothing is measured) outside a checkout of the repository.
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build" "$@"
