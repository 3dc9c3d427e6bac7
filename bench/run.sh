#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository
# root:
#
#	bash bench/run.sh --workload sweep-hot --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files (disk
# caches of the sweep workloads) and trace files.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/sysscale-bench" .)
exec "$out/sysscale-bench" -repo "$root" "$@"
