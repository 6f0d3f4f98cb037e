#!/bin/sh
# Wall-clock trajectory gate: re-measures the BenchmarkSimWall cells and
# fails when any of them runs more than 2x slower, or allocates more than
# 2x as often, as in the committed BENCH_simwall.json baseline.
# `perfsmoke.sh -update` instead regenerates the baseline, including the
# summary speedups perfcmp derives from the cells (functional vs cycle
# tier on the same cells, skip vs noskip).
set -eu
cd "$(dirname "$0")/.."

benchout=$(mktemp)
trap 'rm -f "$benchout"' EXIT

go test -run '^$' -bench '^BenchmarkSimWall$' -benchtime 3x -benchmem -count 1 . | tee "$benchout"

if [ "${1:-}" = "-update" ]; then
    go run ./scripts/perfcmp -update BENCH_simwall.json < "$benchout"
else
    go run ./scripts/perfcmp -baseline BENCH_simwall.json < "$benchout"
fi
