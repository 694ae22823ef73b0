package analysis

import (
	"go/token"
	"path/filepath"
	"testing"
)

// TestLoadReadsTests: Load returns a package's test files with it, the
// in-package one in the test variant and the external one in the _test
// package, each marked as a test variant. rosenbrock has one of each.
func TestLoadReadsTests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list and type-checks rosenbrock's dependencies; skipped in -short")
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, []string{"repro/internal/rosenbrock"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"ros2_test.go":   "repro/internal/rosenbrock [repro/internal/rosenbrock.test]",
		"steady_test.go": "repro/internal/rosenbrock_test [repro/internal/rosenbrock.test]",
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := filepath.Base(fset.Position(f.Pos()).Filename)
			id, ok := want[name]
			if !ok {
				continue
			}
			if pkg.PkgPath != id || pkg.ForTest != "repro/internal/rosenbrock" {
				t.Errorf("%s loaded in %q (ForTest %q), want %q (ForTest repro/internal/rosenbrock)", name, pkg.PkgPath, pkg.ForTest, id)
			}
			delete(want, name)
		}
	}
	for name := range want {
		t.Errorf("Load did not return %s", name)
	}
}
