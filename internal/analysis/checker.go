package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
)

// result collects one package's diagnostics for one analyzer, including
// suppressed ones (marked, so -json can surface them).
type result struct {
	analyzer string
	diags    []Diagnostic
}

// runPackage executes every analyzer over one loaded package against the
// shared fact store and applies the //vetsparse:ignore filter by MARKING
// matched diagnostics suppressed rather than dropping them — plain output
// and the exit status skip them, -json reports them. The malformed-
// directive diagnostics from the ignore scan itself are attributed to the
// pseudo-pass "directive". From a test variant only findings in _test.go
// files are kept: its other files are the plain package's, already
// reported.
func runPackage(pkg *Package, analyzers []*Analyzer, fset *token.FileSet, facts *FactSet) ([]result, error) {
	var results []result
	keep := func(pos token.Pos) bool {
		return pkg.ForTest == "" || strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
	}

	var directiveDiags []Diagnostic
	ignores := NewIgnores(fset, pkg.Files, func(d Diagnostic) {
		if keep(d.Pos) {
			directiveDiags = append(directiveDiags, d)
		}
	})
	if len(directiveDiags) > 0 {
		results = append(results, result{analyzer: "directive", diags: directiveDiags})
	}

	for _, a := range analyzers {
		var diags []Diagnostic
		imp, exp := facts.bind(a)
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Ignores:   ignores,
			Report: func(d Diagnostic) {
				if keep(d.Pos) {
					diags = append(diags, d)
				}
			},
			ImportObjectFact: imp,
			ExportObjectFact: exp,
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzer %s: %v", pkg.PkgPath, a.Name, err)
		}
		for i := range diags {
			diags[i].Suppressed = ignores.Match(a.Name, diags[i].Pos)
		}
		if len(diags) > 0 {
			results = append(results, result{analyzer: a.Name, diags: diags})
		}
	}
	return results, nil
}

// RunPackage runs one analyzer over one loaded package against facts,
// applying the //vetsparse:ignore filter (suppressed diagnostics are
// dropped here — fixture `want` comments describe surviving findings);
// used by the analysistest fixture runner, which checks one analyzer at a
// time.
func RunPackage(pkg *Package, a *Analyzer, fset *token.FileSet, facts *FactSet) ([]Diagnostic, error) {
	results, err := runPackage(pkg, []*Analyzer{a}, fset, facts)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, r := range results {
		if r.analyzer == a.Name {
			for _, d := range r.diags {
				if !d.Suppressed {
					diags = append(diags, d)
				}
			}
		}
	}
	return diags, nil
}

// flat is one position-sorted diagnostic ready for output.
type flat struct {
	pos        token.Position
	msg        string
	pass       string
	suppressed bool
}

// flatten sorts every diagnostic in results by position.
func flatten(fset *token.FileSet, results []result) []flat {
	var all []flat
	for _, r := range results {
		for _, d := range r.diags {
			all = append(all, flat{pos: fset.Position(d.Pos), msg: d.Message, pass: r.analyzer, suppressed: d.Suppressed})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pos.Filename != all[j].pos.Filename {
			return all[i].pos.Filename < all[j].pos.Filename
		}
		if all[i].pos.Line != all[j].pos.Line {
			return all[i].pos.Line < all[j].pos.Line
		}
		return all[i].pos.Column < all[j].pos.Column
	})
	return all
}

// printDiagnostics writes unsuppressed results in the plain `go vet` style
// (file:line:col: message (pass)) sorted by position, returning how many
// were printed.
func printDiagnostics(w io.Writer, fset *token.FileSet, results []result) int {
	count := 0
	for _, d := range flatten(fset, results) {
		if d.suppressed {
			continue
		}
		fmt.Fprintf(w, "%s: %s (%s)\n", d.pos, d.msg, d.pass)
		count++
	}
	return count
}

// jsonDiagnostic is the -json wire format: one object per line.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Pass       string `json:"pass"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// printJSON writes every diagnostic — suppressed ones included, marked —
// as one JSON object per line, sorted by position. The return value counts
// only unsuppressed diagnostics: suppression keeps the exit status clean,
// and -json exists so tooling can audit what the directives hide.
func printJSON(w io.Writer, fset *token.FileSet, results []result) int {
	enc := json.NewEncoder(w)
	count := 0
	for _, d := range flatten(fset, results) {
		enc.Encode(jsonDiagnostic{
			File:       d.pos.Filename,
			Line:       d.pos.Line,
			Col:        d.pos.Column,
			Pass:       d.pass,
			Message:    d.msg,
			Suppressed: d.suppressed,
		})
		if !d.suppressed {
			count++
		}
	}
	return count
}

// Run loads the packages matched by patterns with their tests (plus
// module dependencies), runs the analyzers over each in dependency order sharing one fact store,
// and prints unsuppressed diagnostics to w. It returns the unsuppressed
// diagnostic count.
func Run(w io.Writer, patterns []string, analyzers []*Analyzer) (int, error) {
	return run(w, patterns, analyzers, printDiagnostics)
}

// RunJSON is Run with one JSON object per diagnostic line, suppressed
// findings included (marked "suppressed": true). The count still excludes
// suppressed findings so the exit status matches plain mode.
func RunJSON(w io.Writer, patterns []string, analyzers []*Analyzer) (int, error) {
	return run(w, patterns, analyzers, printJSON)
}

func run(w io.Writer, patterns []string, analyzers []*Analyzer, print func(io.Writer, *token.FileSet, []result) int) (int, error) {
	if err := Validate(analyzers); err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, patterns)
	if err != nil {
		return 0, err
	}
	facts := NewFactSet()
	count := 0
	for _, pkg := range pkgs {
		results, err := runPackage(pkg, analyzers, fset, facts)
		if err != nil {
			return count, err
		}
		count += print(w, fset, results)
	}
	return count, nil
}

// Main is the entry point of cmd/vetsparse: it parses the flags (-json,
// -help, and -<pass> to run only the named passes), analyzes the packages
// the patterns match, and exits nonzero iff diagnostics were reported.
func Main(progname string, analyzers ...*Analyzer) {
	if err := Validate(analyzers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	args := os.Args[1:]
	enabled := analyzers
	jsonOut := false
	var rest []string
	for _, arg := range args {
		switch {
		case arg == "-h" || arg == "-help" || arg == "--help":
			usage(progname, analyzers)
			os.Exit(0)
		case arg == "-json" || arg == "--json":
			jsonOut = true
		case strings.HasPrefix(arg, "-"):
			name, val, hasVal := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			var found *Analyzer
			for _, a := range analyzers {
				if a.Name == name {
					found = a
					break
				}
			}
			if found == nil {
				fmt.Fprintf(os.Stderr, "%s: unknown flag %s\n", progname, arg)
				usage(progname, analyzers)
				os.Exit(2)
			}
			if hasVal && (val == "false" || val == "0") {
				continue // -pass=false: ignore (default set already minimal)
			}
			if len(enabled) == len(analyzers) {
				enabled = nil // first -name flag switches to explicit selection
			}
			enabled = append(enabled, found)
		default:
			rest = append(rest, arg)
		}
	}

	if len(rest) == 0 {
		usage(progname, analyzers)
		os.Exit(2)
	}
	runner := Run
	if jsonOut {
		runner = RunJSON
	}
	n, err := runner(os.Stdout, rest, enabled)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	if n > 0 {
		os.Exit(1)
	}
}

func usage(progname string, analyzers []*Analyzer) {
	fmt.Fprintf(os.Stderr, "%s checks the repo's coordination invariants statically.\n\n", progname)
	fmt.Fprintf(os.Stderr, "Usage:\n  %s [-json] [-pass ...] package...  # -json: one diagnostic object per line, suppressed included\n\nPackages are analyzed with their tests.\n\nRegistered analyzers:\n", progname)
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
	}
}
