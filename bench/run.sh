#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives (verifasd, verifas-router)
# from this checkout, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload real-suite --seed 1 --seconds 30 --trace 0
#
# The build cache, the binaries and the run's reports all go under
# .bench_build/ at the repository root; nothing is written elsewhere.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/verifasd ./cmd/verifas-router >&2
(cd bench && go build -o "$build/bin/bench" .) >&2
exec "$build/bin/bench" -bin "$build/bin" -out "$build/out" "$@"
