#!/usr/bin/env bash
# Builds the vtxn benchmark from the source tree around this directory and
# runs it with the given arguments. Run it from the repository root:
#
#   bash vtxnbench/run.sh --workload escrow-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/vtxnbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# Build from the module directory; its go.mod resolves the engine at "..".
(cd "$root/vtxnbench" && go build -o "$out/vtxnbench" .)
exec "$out/vtxnbench" "$@"
