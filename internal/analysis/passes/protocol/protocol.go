// Package protocol implements the vetsparse pass guarding the
// master/worker protocol invariants of internal/core and
// internal/manifold (the paper's §5 coordination discipline, made
// fault-tolerant in PR 3):
//
//  1. Deadline reads are checked: the error of ReadWithin /
//     ReadResultWithin and the ok of WaitWithin must not be discarded —
//     a dropped timeout silently loses a protocol message.
//  2. Worker removal raises exactly one death event: markDead must be
//     used directly as an if condition whose guarded block raises
//     death_worker exactly once. That syntactic discipline is what keeps
//     the rendezvous ledger exact — zero raises leaks a worker the
//     coordinator waits for forever, two raises double-counts a death.
//  3. No silent envelope drops: a select branch that receives a job or
//     result envelope and neither uses it nor emits a retry/abandon/
//     failure event loses work invisibly.
package protocol

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/readforms"
)

var Analyzer = &analysis.Analyzer{
	Name: "protocol",
	Doc:  "enforce checked deadline reads, exactly-one death_worker raise per removal, and no silent envelope drops in core/manifold",
	Run:  run,
}

// scopedPkgs are the protocol layers the pass applies to, by package name
// so fixtures can reproduce them.
var scopedPkgs = map[string]bool{"core": true, "manifold": true}

// The deadline-read method table lives in readforms.Deadline, shared with
// the locks pass: this pass grew its own copy by hand once and missed the
// *Until forms, the blind spot that motivated one table.

// eventCalls are the method names accepted as handling an envelope that a
// select branch would otherwise drop: observability emission or the
// pool's failure bookkeeping.
var eventCalls = map[string]bool{"Emit": true, "EmitAt": true, "Raise": true, "fail": true, "exhaust": true, "abandon": true, "retry": true}

func run(pass *analysis.Pass) (any, error) {
	if !scopedPkgs[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		checkDeadlineReads(pass, f)
		checkMarkDead(pass, f)
		checkSelectDrops(pass, f)
	}
	return nil, nil
}

// checkDeadlineReads flags ReadWithin/ReadResultWithin/WaitWithin calls
// whose error/ok result is discarded: used as a bare statement, or with
// the final result assigned to blank.
func checkDeadlineReads(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name := deadlineMethod(pass.TypesInfo, call); name != "" {
					pass.Reportf(call.Pos(), "result of %s dropped; a missed deadline must be handled, not ignored", name)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			name := deadlineMethod(pass.TypesInfo, call)
			if name == "" {
				return true
			}
			if last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
				pass.Reportf(call.Pos(), "%s of %s assigned to _; a missed deadline must be handled, not ignored", lastResultName(pass.TypesInfo, call), name)
			}
		}
		return true
	})
}

// deadlineMethod returns the method name when call is a deadline read —
// a method in readforms.Deadline returning (T, error) or (T, bool) —
// else "".
func deadlineMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !readforms.Deadline[sel.Sel.Name] {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	results := fn.Type().(*types.Signature).Results()
	if results.Len() != 2 {
		return ""
	}
	switch t := results.At(1).Type().(type) {
	case *types.Named:
		if t.Obj().Pkg() == nil && t.Obj().Name() == "error" {
			return sel.Sel.Name
		}
	case *types.Basic:
		if t.Kind() == types.Bool {
			return sel.Sel.Name
		}
	}
	return ""
}

func lastResultName(info *types.Info, call *ast.CallExpr) string {
	if tv, ok := info.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok && tuple.Len() == 2 {
			if b, ok := tuple.At(1).Type().(*types.Basic); ok && b.Kind() == types.Bool {
				return "ok"
			}
		}
	}
	return "error"
}

// checkMarkDead enforces the exactly-once death pattern: every markDead
// call is the condition of an if whose body raises death_worker exactly
// once.
func checkMarkDead(pass *analysis.Pass, f *ast.File) {
	guarded := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(ifStmt.Cond).(*ast.CallExpr)
		if !ok || !isMethodNamed(call, "markDead") {
			return true
		}
		guarded[call] = true
		raises := countDeathRaises(pass.TypesInfo, ifStmt.Body)
		switch {
		case raises == 0:
			pass.Reportf(ifStmt.Pos(), "markDead branch removes a worker without raising death_worker; the rendezvous ledger loses a death")
		case raises > 1:
			pass.Reportf(ifStmt.Pos(), "markDead branch raises death_worker %d times; the rendezvous ledger double-counts the death", raises)
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isMethodNamed(call, "markDead") || guarded[call] {
			return true
		}
		pass.Reportf(call.Pos(), "markDead must be the condition of an if guarding exactly one death_worker raise; its result decides who raises the death event")
		return true
	})
}

func isMethodNamed(call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// countDeathRaises counts Raise calls in the block whose argument is the
// death_worker event (by constant value).
func countDeathRaises(info *types.Info, block *ast.BlockStmt) int {
	count := 0
	ast.Inspect(block, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isMethodNamed(call, "Raise") || len(call.Args) != 1 {
			return true
		}
		if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil &&
			tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "death_worker" {
			count++
		}
		return true
	})
	return count
}

// checkSelectDrops flags select branches that receive an envelope-typed
// value and let it vanish: the value is unbound or unused and the branch
// emits no retry/abandon/failure event.
func checkSelectDrops(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			comm := clause.(*ast.CommClause)
			elem, bound := envelopeReceive(pass.TypesInfo, comm.Comm)
			if elem == "" {
				continue
			}
			if bound != nil && usedIn(pass.TypesInfo, comm.Body, bound) {
				continue
			}
			if hasEventCall(comm.Body) {
				continue
			}
			pass.Reportf(comm.Pos(), "select branch drops a %s without a retry/abandon event; lost envelopes must be accounted for", elem)
		}
		return true
	})
}

// envelopeReceive reports whether the comm statement receives from a
// channel of envelope-named element type, returning the element type name
// and the object the value is bound to (nil when discarded).
func envelopeReceive(info *types.Info, comm ast.Stmt) (elem string, bound types.Object) {
	var recv *ast.UnaryExpr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv, _ = ast.Unparen(s.X).(*ast.UnaryExpr)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv, _ = ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
		}
		if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			bound = info.Defs[id]
			if bound == nil {
				bound = info.Uses[id]
			}
		}
	}
	if recv == nil || recv.Op.String() != "<-" {
		return "", nil
	}
	tv, ok := info.Types[recv.X]
	if !ok {
		return "", nil
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return "", nil
	}
	name := typeName(ch.Elem())
	if !strings.Contains(strings.ToLower(name), "envelope") {
		return "", nil
	}
	return name, bound
}

func typeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func usedIn(info *types.Info, stmts []ast.Stmt, obj types.Object) bool {
	used := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				used = true
			}
			return !used
		})
	}
	return used
}

func hasEventCall(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && eventCalls[sel.Sel.Name] {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
