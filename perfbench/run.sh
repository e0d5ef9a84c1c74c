#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload scale1000 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# The module has no dependencies to fetch; the go command's own state
# (build cache, telemetry counters) goes under the build directory too.
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache
export XDG_CONFIG_HOME=$out/config

bin=$out/perfbench
(cd "$root/perfbench" && go build -o "$bin.tmp.$$" .)
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" --workdir "$out/work" "$@"
