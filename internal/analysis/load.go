package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the package's ID in `go list -test` terms: the import
	// path, or for a test variant "path [path.test]".
	PkgPath string
	// ForTest is set on a test variant: the import path of the package
	// whose test binary it belongs to. Its non-test files were already
	// analyzed as the plain package, so only its findings in _test.go
	// files are reported.
	ForTest string
	// Files are the parsed compiled Go files, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the type-checker output for Files.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	ForTest    string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	Error      *struct{ Err string }
}

// Load resolves the patterns with `go list -deps -test -json` and
// type-checks every non-standard package from source, dependencies first,
// so analyzer facts flow bottom-up. The matched packages' test variants
// come too: the package recompiled with its in-package _test.go files, and
// the external _test package. Each resolves its imports through its own
// ImportMap, so an external test sees the variant it is compiled against.
// The generated test mains are skipped. Standard library imports resolve
// through the compiler's export data.
func Load(fset *token.FileSet, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-test", "-json=ImportPath,ForTest,Dir,GoFiles,ImportMap,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v", strings.Join(patterns, " "), err)
	}

	dec := json.NewDecoder(strings.NewReader(string(out)))
	base := moduleImporter{
		checked: make(map[string]*types.Package),
		gc:      importer.ForCompiler(fset, "gc", nil),
		source:  importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Standard || lp.ImportPath == "unsafe" || strings.HasSuffix(lp.ImportPath, ".test") {
			continue // the standard library, and the test mains go test generates
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue // test-only package: its test variant carries the files
		}
		imp := base
		imp.importMap = lp.ImportMap
		path, _, _ := strings.Cut(lp.ImportPath, " ") // "p [p.test]" is package p
		pkg, err := typeCheckDir(fset, path, lp.Dir, lp.GoFiles, &imp)
		if err != nil {
			return nil, err
		}
		pkg.PkgPath, pkg.ForTest = lp.ImportPath, lp.ForTest
		base.checked[lp.ImportPath] = pkg.Types
		// Dependencies are analyzed too (facts flow bottom-up) and their
		// diagnostics are reported: a violated invariant in a dependency
		// is a finding wherever the driver was pointed.
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheckDir parses and type-checks one package from source.
func typeCheckDir(fset *token.FileSet, path, dir string, goFiles []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{PkgPath: path, Files: files, Types: tpkg, Info: info}, nil
}

// NewTypesInfo returns a types.Info with every result map allocated, as
// the passes expect.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// moduleImporter resolves one package's imports: module packages from
// those already type-checked this run (go list -deps guarantees dependency
// order), keyed through the package's ImportMap, and everything else
// through the gc export-data importer, falling back to type-checking the
// standard library from source if export data is unavailable.
type moduleImporter struct {
	checked   map[string]*types.Package // by go list ImportPath
	importMap map[string]string         // import path -> ImportPath, where they differ
	gc        types.Importer
	source    types.Importer
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if id, ok := m.importMap[path]; ok {
		path = id
	}
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	p, err := m.gc.Import(path)
	if err == nil {
		return p, nil
	}
	return m.source.Import(path)
}
