#!/usr/bin/env bash
# Smoke-load the solve service: start it in-process and drive a bursty
# multi-client load against it, printing the outcome ledger with
# p50/p95/p99 latencies. CI runs this with a fault spec so the shed and
# failed paths light up; extra arguments are passed through to
# `solved loadtest` (e.g. -faults ..., -timeline out.jsonl).
set -euo pipefail
cd "$(dirname "$0")/.."

exec go run ./cmd/solved loadtest -self \
    -clients 8 -requests 6 -burst 3 -tenants 3 -seed 42 \
    -queue 8 -executors 2 \
    -tenant-rate 100 -tenant-burst 6 -max-inflight 4 \
    -breaker-threshold 3 \
    "$@"
