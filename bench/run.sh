#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of the checkout. Everything it writes (Go's build
# cache, temporary files, spill files, the binary) goes under
# .bench_build in the checkout.
#
#   bash bench/run.sh --workload section_mixed --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" GOTOOLCHAIN=local
# Go keeps its telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$build/config"
# The driver's checkout is not a git repository; results then say so.
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
go build -C bench -buildvcs=false -o "$build/drxbench" .
exec "$build/drxbench" "$@"
