#!/bin/sh
# bench.sh — run the hot-kernel benchmarks with allocation reporting, for
# before/after comparison of the Rosenbrock stepping loop (see the
# "Hot-loop cost model" section of EXPERIMENTS.md).
#
# Usage:
#   scripts/bench.sh                 # full run
#   scripts/bench.sh -benchtime 1x   # smoke run (CI)
#   scripts/bench.sh -count 5        # for benchstat comparisons
#   scripts/bench.sh --json BENCH_4.json   # also write machine-readable results
#
# --json FILE parses every benchmark line of the run into one JSON document
# (name, ns/op, allocs/op, plus host metadata) — the canonical format
# later PRs append their BENCH_<n>.json files in. All other arguments are
# passed through to `go test`.
set -eu
cd "$(dirname "$0")/.."

json=""
if [ "${1:-}" = "--json" ]; then
    json="${2:?usage: bench.sh --json FILE [go test args]}"
    shift 2
fi

run_benches() {
    echo "## linalg kernels (assembly vs in-place update; SpMV alone and with one and two fused reductions, and ILU solve, per shape; the Gram-Schmidt sweep of an early, middle and last Arnoldi column; one four-op phase at team sizes 1, 2, 4)"
    go test -run XXX \
        -bench 'BenchmarkShifted|BenchmarkMulVec|BenchmarkMGS|BenchmarkILUSolve|BenchmarkBuilderBuild|BenchmarkTeamDispatch' \
        -benchmem "$@" ./internal/linalg/

    echo
    echo "## rosenbrock steady-state stepping (must be 0 allocs/op)"
    go test -run XXX \
        -bench 'BenchmarkSubsolveSteady|BenchmarkIntegrateWorkspaceReuse' \
        -benchmem "$@" ./internal/rosenbrock/
}

hostcpus="$(nproc 2>/dev/null || echo 1)"
if [ "$hostcpus" -le 1 ]; then
    echo "WARNING: this host exposes only 1 CPU — the >1-core benchmark rows" >&2
    echo "WARNING: measure dispatch overhead, not scaling; calibration will" >&2
    echo "WARNING: sequentialize the team kernels. Use a multi-core runner" >&2
    echo "WARNING: (CI pins GOMAXPROCS=4) for real strong-scaling numbers." >&2
fi

if [ -z "$json" ]; then
    run_benches "$@"
    exit 0
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
run_benches "$@" | tee "$out"

# Benchmark lines look like:
#   BenchmarkX/sub-4  100  12345 ns/op  67 extra/unit  0 B/op  0 allocs/op
awk '
BEGIN { n = 0 }
# scaling_valid marks whether >1-core rows measure real scaling: on a
# 1-CPU host they measure dispatch overhead only (see the WARNING above),
# so downstream consumers must not read speedups out of them.
$1 ~ /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (allocs == "") allocs = 0
    rows[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs)
}
END {
    printf "{\n"
    printf "  \"pr\": 5,\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"host_cpus\": %d,\n", hostcpus
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs
    printf "  \"scaling_valid\": %s,\n", (hostcpus > 1 ? "true" : "false")
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' goversion="$(go env GOVERSION)" hostcpus="$hostcpus" gomaxprocs="${GOMAXPROCS:-$hostcpus}" "$out" > "$json"
echo
echo "wrote $json"
