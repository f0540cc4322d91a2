#!/usr/bin/env bash
# Builds the benchmark and the mwct binary it drives, then runs the benchmark
# with the given arguments. Run it from the root of the repository:
#
#   bash bench/run.sh --seed 1                       # the whole benchmark
#   bash bench/run.sh --workload solo-backlog --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and result stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd bench && go build -o "$out/bin/bench" . && go build -o "$out/bin/mwct" github.com/malleable-sched/malleable/cmd/mwct)
exec "$out/bin/bench" -mwct "$out/bin/mwct" -out "$out/out" "$@"
