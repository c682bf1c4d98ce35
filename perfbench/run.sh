#!/usr/bin/env bash
# Builds cmd/coschedd and the benchmark from this checkout's source,
# then runs the benchmark. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload schedule-cold --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and run directory goes under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C "$root/perfbench" build -o "$out/coschedd" repro/cmd/coschedd
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --daemon "$out/coschedd" --out "$out/runs" "$@"
