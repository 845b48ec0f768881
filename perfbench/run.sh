#!/usr/bin/env bash
# Builds the benchmark and the three CLIs it drives (pride-replay,
# pride-attack, pride-serve) from the sources of this checkout, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload replay-trace --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/bin/" ./cmd/pride-replay ./cmd/pride-attack ./cmd/pride-serve
exec "$out/perfbench" -bin "$out/bin" -work "$out/work" "$@"
