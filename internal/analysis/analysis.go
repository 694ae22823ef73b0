// Package analysis is a self-contained, dependency-free reimplementation
// of the golang.org/x/tools/go/analysis driver surface that the vetsparse
// suite needs. The repo's invariants — bit-for-bit deterministic
// reductions, zero-allocation hot loops, exact death_worker rendezvous
// accounting, a single observability taxonomy — are enforced by
// example-based tests; the passes built on this package check them
// mechanically from the code, in the spirit of Arbab et al.'s verifiable
// protocol work.
//
// The API deliberately mirrors x/tools (Analyzer, Pass, Diagnostic, object
// facts) so the passes read like standard go/analysis passes and could be
// ported to the real framework by changing one import, but everything here
// builds with the standard library only, so the module takes no
// third-party dependency. Main (`go run ./cmd/vetsparse ./...`) runs the
// passes: it loads the packages and their tests with `go list` (load.go)
// and analyzes them in one process (checker.go), facts held in memory
// (facts.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass: a name, documentation, the
// fact types it exchanges across packages, and the per-package Run.
type Analyzer struct {
	// Name identifies the pass in diagnostics, flags (-name), and
	// suppression directives (//vetsparse:ignore name reason).
	Name string
	// Doc is the help text; the first line is the one-line summary.
	Doc string
	// FactTypes lists the fact value types the pass exports and imports,
	// each a pointer type, as x/tools declares them.
	FactTypes []Fact
	// Run executes the pass on one package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Fact is an observation about a package-level object, exported by the
// pass that analyzed the defining package and importable wherever the
// object is used — how bottom-up properties (e.g. "this function can reach
// time.Now") propagate across package boundaries in dependency order.
// Implementations must be pointer types.
type Fact interface {
	// AFact marks the type as a fact; it is never called.
	AFact()
}

// Pass is the interface between one Analyzer run and the driver: the
// package under analysis plus reporting and fact-exchange hooks.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps positions of every file in the analysis.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Ignores answers whether a //vetsparse:ignore directive suppresses a
	// given pass at a given position; passes that derive facts (not just
	// diagnostics) from a source position must consult it so a suppressed
	// line does not poison fact propagation. Reported diagnostics are
	// filtered by the driver automatically.
	Ignores *Ignores
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
	// ImportObjectFact copies the fact of the given type previously
	// exported for obj into fact and reports whether one existed.
	ImportObjectFact func(obj types.Object, fact Fact) bool
	// ExportObjectFact associates fact with obj for downstream packages.
	ExportObjectFact func(obj types.Object, fact Fact)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message, attributed to the
// reporting analyzer by the driver.
type Diagnostic struct {
	// Pos is where the finding anchors.
	Pos token.Pos
	// Message states the violated invariant.
	Message string
	// Suppressed is set by the driver (never by analyzers) when a
	// //vetsparse:ignore directive matched the diagnostic. Suppressed
	// findings are dropped from plain output and the exit status, but
	// still appear in -json output with "suppressed": true, so tooling
	// can audit what the directives hide.
	Suppressed bool
}

// Validate checks the analyzer set for driver use: non-empty distinct
// names and a Run function.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q missing Name or Run", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
