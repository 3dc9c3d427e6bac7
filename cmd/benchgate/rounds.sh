#!/usr/bin/env bash
# Usage: cmd/benchgate/rounds.sh PARENT_DIR CHANGE_DIR OUT_DIR
#
# Builds the gated test binaries of two checkouts and runs them for ten
# rounds, alternating which side goes first, into OUT_DIR/parent.out and
# OUT_DIR/change.out. The engine and sweep-service entries run under
# GOMAXPROCS=2 so a host's core count cannot move them. -trimpath makes
# identical code in two directories build to identical binaries. The
# disk tier is gated on Get only: Put ends in an fsync, whose time
# spread 30-60% between identical runs, wider than any gate bound.
set -euo pipefail
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) out=$(mkdir -p "$3" && cd "$3" && pwd)
rm -f "$out/parent.out" "$out/change.out"
for side in parent change; do
	for pkg in internal/soc . internal/spec internal/compute internal/sweepd internal/diskcache internal/engine internal/policy; do
		(cd "${!side}" && go test -c -trimpath -o "$out/$side/${pkg//[.\/]/_}.test" "./$pkg")
	done
done
bench() { # side pkg regexp benchtime
	(cd "${!1}/$2" && "$out/$1/${2//[.\/]/_}.test" -test.run '^$' -test.bench "$3" \
		-test.benchtime "$4" -test.benchmem -test.timeout 10m) >>"$out/$1.out"
}
side() {
	bench "$1" internal/soc 'BenchmarkTickLoop(SteadyState|MemoOff)$|BenchmarkRunnerPooled|BenchmarkResultCodec$' 1s
	GOMAXPROCS=2 bench "$1" . 'BenchmarkEngineParallel$|BenchmarkEngineStream$|BenchmarkMonteCarlo$' 5x
	bench "$1" internal/spec 'BenchmarkReadJobs$|BenchmarkKeyGenerated$' 1s
	bench "$1" internal/compute 'BenchmarkFreqForBudget$' 1s
	GOMAXPROCS=2 bench "$1" internal/sweepd 'BenchmarkSweepHot$' 1s
	bench "$1" internal/diskcache 'BenchmarkGet$' 1s
	GOMAXPROCS=2 bench "$1" internal/engine 'BenchmarkLookup$' 1s
	bench "$1" internal/policy 'BenchmarkDecide$' 1s
}
for round in 1 2 3 4 5 6 7 8 9 10; do
	if ((round % 2)); then order="parent change"; else order="change parent"; fi
	for s in $order; do side "$s"; done
done
