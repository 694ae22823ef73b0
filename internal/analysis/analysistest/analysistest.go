// Package analysistest runs an analyzer over fixture packages rooted at
// testdata/src and checks its diagnostics against // want comments, in the
// style of golang.org/x/tools/go/analysis/analysistest (reimplemented on
// the standard library because the container has no module proxy).
//
// A fixture line expecting diagnostics carries a comment of the form
//
//	code() // want "regexp" `another regexp`
//
// Every diagnostic reported on that line must match one of the regexps and
// every regexp must be matched by some diagnostic; lines without a want
// comment must be diagnostic-free. Fixture packages may import each other
// (resolved under testdata/src, dependencies analyzed first so facts
// propagate) and the standard library.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run analyzes the fixture packages named by pkgpaths (directories under
// dir/src) and reports any mismatch between diagnostics and want comments
// as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		src:  filepath.Join(dir, "src"),
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: make(map[string]*analysis.Package),
	}
	facts := analysis.NewFactSet()
	for _, path := range pkgpaths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		// Analyze fixture dependencies first so object facts are in place,
		// then the named package, whose diagnostics are checked.
		for _, dep := range l.order {
			if dep.PkgPath == path || dep.checked {
				continue
			}
			if _, err := analysis.RunPackage(dep.Package, a, fset, facts); err != nil {
				t.Fatalf("analyzing fixture dependency %s: %v", dep.PkgPath, err)
			}
			dep.checked = true
		}
		diags, err := analysis.RunPackage(pkg, a, fset, facts)
		if err != nil {
			t.Fatalf("analyzing fixture %s: %v", path, err)
		}
		for _, fp := range l.order {
			if fp.PkgPath == path {
				fp.checked = true
			}
		}
		check(t, fset, pkg, diags)
	}
}

// fixturePkg tracks analysis state for one loaded fixture package.
type fixturePkg struct {
	*analysis.Package
	checked bool
}

// loader loads fixture packages beneath testdata/src, memoized, recording
// dependency-first order.
type loader struct {
	fset  *token.FileSet
	src   string
	std   types.Importer
	pkgs  map[string]*analysis.Package
	order []*fixturePkg
}

func (l *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &analysis.Package{PkgPath: path, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	l.order = append(l.order, &fixturePkg{Package: pkg})
	return pkg, nil
}

// importPkg resolves a fixture import: under testdata/src if present,
// otherwise the standard library.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(path))); err == nil {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one "regexp" from a want comment, consumed when matched.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// check compares reported diagnostics with the fixture's want comments.
func check(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	type lineKey struct {
		file string
		line int
	}
	want := make(map[lineKey][]*expectation)
	for _, f := range pkg.Files {
		fileName := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := cutWant(c.Text)
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				exps, err := parseExpectations(text)
				if err != nil {
					t.Errorf("%s:%d: %v", fileName, line, err)
					continue
				}
				key := lineKey{fileName, line}
				want[key] = append(want[key], exps...)
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := lineKey{pos.Filename, pos.Line}
		found := false
		for _, exp := range want[key] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}

	var keys []lineKey
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, exp := range want[k] {
			if !exp.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, exp.raw)
			}
		}
	}
}

// cutWant extracts the expectation list following "want" in a comment,
// reporting whether the comment is a want comment.
func cutWant(comment string) (string, bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return "", false
	}
	return rest, true
}

// parseExpectations scans a sequence of Go string literals.
func parseExpectations(text string) ([]*expectation, error) {
	var sc scanner.Scanner
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(text))
	sc.Init(file, []byte(text), nil, 0)
	var exps []*expectation
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF || tok == token.SEMICOLON {
			break
		}
		if tok != token.STRING {
			return nil, fmt.Errorf("want comment: expected string literal, got %s", tok)
		}
		raw, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("want comment: %v", err)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("want comment: bad regexp %q: %v", raw, err)
		}
		exps = append(exps, &expectation{re: re, raw: raw})
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("want comment: no expectations")
	}
	return exps, nil
}
