#!/bin/sh
# bench.sh — run the hot-kernel benchmarks with allocation reporting, for
# before/after comparison of the Rosenbrock stepping loop (see the
# "Hot-loop cost model" section of EXPERIMENTS.md).
#
# Usage:
#   scripts/bench.sh                 # full run
#   scripts/bench.sh -benchtime 1x   # smoke run (CI)
#   scripts/bench.sh -count 5        # for benchstat comparisons
#
# All arguments are passed through to `go test`. Numbers that decide anything
# come from `go run ./benchmark` (benchmark/README.md), not from here.
set -eu
cd "$(dirname "$0")/.."

hostcpus="$(nproc 2>/dev/null || echo 1)"
if [ "$hostcpus" -le 1 ]; then
    echo "WARNING: this host exposes only 1 CPU — the >1-core benchmark rows" >&2
    echo "WARNING: measure dispatch overhead, not scaling; calibration will" >&2
    echo "WARNING: sequentialize the team kernels. Use a multi-core runner" >&2
    echo "WARNING: (CI pins GOMAXPROCS=4) for real strong-scaling numbers." >&2
fi

echo "## linalg kernels (assembly vs in-place update; SpMV alone and with one and two fused reductions, and ILU solve, per shape; one four-op phase at team sizes 1, 2, 4)"
go test -run XXX \
    -bench 'BenchmarkShifted|BenchmarkMulVec|BenchmarkILUSolve|BenchmarkBuilderBuild|BenchmarkTeamDispatch' \
    -benchmem "$@" ./internal/linalg/

echo
echo "## rosenbrock steady-state stepping (must be 0 allocs/op)"
go test -run XXX \
    -bench 'BenchmarkSubsolveSteady|BenchmarkIntegrateWorkspaceReuse' \
    -benchmem "$@" ./internal/rosenbrock/
