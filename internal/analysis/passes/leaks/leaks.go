// Package leaks implements the vetsparse pass requiring a provable
// termination signal in every goroutine launched under internal/...
// (DESIGN.md §9): drain-correctness (PR 8's breaker/drain machinery)
// depends on every worker actually exiting, and a
// fire-and-forget goroutine with no way out outlives Drain silently — the
// race detector can't see a leak that never touches shared memory.
//
// A goroutine body proves termination when every infinite construct in it
// has an escape:
//
//   - `for { ... }` (no condition) must contain a reachable exit bound to
//     that loop: a return, a break (binding respected — a break inside a
//     nested select/switch/loop does not exit it), a goto, or a panic.
//     The usual shape is the quit-channel select clause ending in return.
//   - `select {}` (no clauses) blocks forever and is always reported.
//   - Conditional and range loops are bounded by their condition or by
//     channel close, and straight-line bodies terminate trivially — both
//     pass without further proof.
//
// Both `go func(){...}()` literals and `go name(...)` launches of
// package-local functions are checked; the diagnostic lands on the go
// statement (the launch decides the goroutine's lifetime, and one leaky
// worker launched from three sites is three leaks).
package leaks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "leaks",
	Doc:  "require a provable termination signal in every goroutine: infinite loops need a reachable exit, select{} never returns",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	// Scope: the repo's internal packages, plus anything outside the
	// module (fixtures). cmd/ binaries run to process exit and may hold
	// process-lifetime goroutines.
	if p := pass.Pkg.Path(); strings.HasPrefix(p, "repro/") && !strings.HasPrefix(p, "repro/internal/") {
		return nil, nil
	}

	// Package-local function bodies, for `go name(...)` launches.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					decls[obj] = fn
				}
			}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			var what string
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				body, what = fun.Body, "goroutine"
			default:
				callee := calleeFunc(pass.TypesInfo, g.Call)
				if callee == nil || callee.Pkg() != pass.Pkg {
					return true // dynamic or cross-package launch: out of reach
				}
				if d := decls[callee]; d != nil {
					body, what = d.Body, "goroutine "+callee.Name()
				}
			}
			if body == nil {
				return true
			}
			for _, p := range checkBody(body) {
				pass.Reportf(g.Pos(), "%s has no termination signal: %s; it outlives drain — give it a quit/done receive with return, or bound the loop", what, p)
			}
			return true
		})
	}
	return nil, nil
}

// checkBody scans one goroutine body for eternal constructs without an
// escape, returning one description per finding. Function literals nested
// in the body run on their own schedule (or not at all) and are skipped —
// they get their own check if launched with go.
func checkBody(body *ast.BlockStmt) []string {
	var problems []string
	labels := map[*ast.ForStmt]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.LabeledStmt:
			if loop, ok := n.Stmt.(*ast.ForStmt); ok {
				labels[loop] = n.Label.Name
			}
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				problems = append(problems, "select{} blocks forever")
			}
		case *ast.ForStmt:
			if n.Cond == nil && !loopHasExit(n, labels[n]) {
				problems = append(problems, "infinite for loop with no reachable return, break, or goto")
			}
		}
		return true
	})
	return problems
}

// loopHasExit reports whether the infinite loop contains an exit bound to
// it: a return, a break that targets this loop (unlabeled only when not
// recaptured by a nested breakable construct, or labeled with this loop's
// label), a goto (assumed outward — inward gotos that keep the loop alive
// are not written in this codebase), or a definite no-return call (panic,
// os.Exit, runtime.Goexit, log.Fatal*).
func loopHasExit(loop *ast.ForStmt, label string) bool {
	return stmtsHaveExit(loop.Body.List, label, true)
}

func stmtsHaveExit(stmts []ast.Stmt, label string, breakBindsHere bool) bool {
	for _, s := range stmts {
		if stmtHasExit(s, label, breakBindsHere) {
			return true
		}
	}
	return false
}

func stmtHasExit(s ast.Stmt, label string, breakBindsHere bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			return true
		case token.BREAK:
			if s.Label == nil {
				return breakBindsHere
			}
			return label != "" && s.Label.Name == label
		}
		return false
	case *ast.LabeledStmt:
		return stmtHasExit(s.Stmt, label, breakBindsHere)
	case *ast.ExprStmt:
		return isNoReturnCall(s.X)
	case *ast.BlockStmt:
		return stmtsHaveExit(s.List, label, breakBindsHere)
	case *ast.IfStmt:
		if stmtHasExit(s.Body, label, breakBindsHere) {
			return true
		}
		if s.Else != nil && stmtHasExit(s.Else, label, breakBindsHere) {
			return true
		}
		return false
	case *ast.ForStmt:
		return stmtsHaveExit(s.Body.List, label, false)
	case *ast.RangeStmt:
		return stmtsHaveExit(s.Body.List, label, false)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && stmtsHaveExit(cc.Body, label, false) {
				return true
			}
		}
		return false
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok && stmtsHaveExit(cc.Body, label, false) {
				return true
			}
		}
		return false
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok && stmtsHaveExit(cc.Body, label, false) {
				return true
			}
		}
		return false
	case *ast.DeferStmt, *ast.GoStmt:
		return false
	}
	return false
}

// isNoReturnCall recognizes calls that definitely do not return control:
// panic, os.Exit, runtime.Goexit, log.Fatal / log.Fatalf / log.Fatalln.
func isNoReturnCall(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			switch pkg.Name + "." + fun.Sel.Name {
			case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
		}
	}
	return false
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
