#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Usage (from the repository root):
#   bash perfbench/run.sh --workload sweep-cycle --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod
export TMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tmp "$out/tmp" "$@"
