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

echo "## linalg kernels (assembly vs in-place update; SpMV alone and with one and two fused reductions, and ILU solve, per shape)"
go test -run XXX \
    -bench 'BenchmarkShifted|BenchmarkMulVec|BenchmarkILUSolve|BenchmarkBuilderBuild' \
    -benchmem "$@" ./internal/linalg/

echo
echo "## rosenbrock steady-state stepping (must be 0 allocs/op)"
go test -run XXX \
    -bench 'BenchmarkSubsolveSteady|BenchmarkIntegrateWorkspaceReuse' \
    -benchmem "$@" ./internal/rosenbrock/
