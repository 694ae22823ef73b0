package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/allocfree"
	"repro/internal/analysis/passes/determinism"
	"repro/internal/analysis/passes/leaks"
	"repro/internal/analysis/passes/locks"
	"repro/internal/analysis/passes/obsnames"
	"repro/internal/analysis/passes/protocol"
)

func allAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		allocfree.Analyzer,
		protocol.Analyzer,
		obsnames.Analyzer,
		locks.Analyzer,
		leaks.Analyzer,
	}
}

// TestSelfClean runs the full vetsparse suite over the repository itself —
// the same invariant CI enforces with `go run ./cmd/vetsparse ./...`.
// Every existing hot path, protocol site, lockset and goroutine, in the
// test files too, must satisfy the analyzers (with any justified
// //vetsparse:ignore suppressions in place).
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	var out bytes.Buffer
	count, err := analysis.Run(&out, []string{"repro/..."}, allAnalyzers())
	if err != nil {
		t.Fatalf("vetsparse over repro/...: %v", err)
	}
	if count != 0 {
		t.Fatalf("vetsparse reported %d finding(s) on the repo:\n%s", count, out.String())
	}
}

// TestSelfJSON runs the suite in -json mode over the repo: the exit count
// must still be zero, every line must decode, and every finding a
// //vetsparse:ignore directive hides must be present and marked — that
// audit trail is why -json exists.
func TestSelfJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	var out bytes.Buffer
	count, err := analysis.RunJSON(&out, []string{"repro/..."}, allAnalyzers())
	if err != nil {
		t.Fatalf("vetsparse -json over repro/...: %v", err)
	}
	if count != 0 {
		t.Fatalf("vetsparse -json counted %d unsuppressed finding(s):\n%s", count, out.String())
	}
	// Any object that does appear must be a suppressed finding: the count
	// above says no live ones exist. (An empty stream is also legal here,
	// as a tree may carry no directive at all; the directive-interplay
	// tests in internal/analysis pin the marked-suppressed behavior on a
	// synthetic package.)
	dec := json.NewDecoder(&out)
	for dec.More() {
		var d struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Col        int    `json:"col"`
			Pass       string `json:"pass"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
		}
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("undecodable -json line: %v", err)
		}
		if !d.Suppressed {
			t.Errorf("unsuppressed finding leaked past count: %+v", d)
		}
	}
}
