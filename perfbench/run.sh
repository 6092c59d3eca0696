#!/usr/bin/env bash
# Builds the benchmark and the repro daemon from the sources of the
# checkout it is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload graphchi-P --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, traces, the per-run temp directory) goes under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$bench" && go build -o "$out/perfbench" . && go build -o "$out/repro" repro/cmd/repro)
exec "$out/perfbench" -repro "$out/repro" -out "$out" "$@"
