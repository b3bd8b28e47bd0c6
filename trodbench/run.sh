#!/usr/bin/env bash
# Builds trodbench from source and runs it with the given arguments, e.g.
#
#   bash trodbench/run.sh --workload app_traced --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build caches, the binary, WAL
# directories and span dumps all stay under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export TRODBENCH_DIR=$out/trodbench
go build -C "$root/trodbench" -o "$out/trodbench-bin" . >&2
exec "$out/trodbench-bin" "$@"
