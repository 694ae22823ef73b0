// Command vetsparse is the repo's custom static-analysis gate: six
// go/analysis-style passes that machine-check the repo's invariants —
// deterministic numerics (determinism), zero-allocation hot loops
// (allocfree), exact master/worker protocol accounting (protocol), a
// single observability name taxonomy (obsnames), and the flow-sensitive
// concurrency pair: lockset discipline (locks) and goroutine termination
// (leaks). It analyzes the named packages with their tests. See LINTS.md
// for each pass's invariant, diagnostics, and suppression conventions.
//
// Run it from the module root:
//
//	go run ./cmd/vetsparse ./...
//	go run ./cmd/vetsparse -json ./...   # one JSON object per diagnostic line
//	go run ./cmd/vetsparse -locks ./...  # only the named passes
package main

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/allocfree"
	"repro/internal/analysis/passes/determinism"
	"repro/internal/analysis/passes/leaks"
	"repro/internal/analysis/passes/locks"
	"repro/internal/analysis/passes/obsnames"
	"repro/internal/analysis/passes/protocol"
)

func main() {
	analysis.Main("vetsparse",
		determinism.Analyzer,
		allocfree.Analyzer,
		protocol.Analyzer,
		obsnames.Analyzer,
		locks.Analyzer,
		leaks.Analyzer,
	)
}
