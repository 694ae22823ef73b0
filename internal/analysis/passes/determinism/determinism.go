// Package determinism implements the vetsparse pass guarding the repo's
// bit-for-bit reproducibility invariant (DESIGN.md §8): the numeric stack
// — linalg, grid, solver, rosenbrock — must produce identical floats for
// identical inputs, every reduction folded in fixed chunk order.
//
// Three rules:
//
//  1. No unordered iteration feeding floats or output: `range` over a map
//     whose body performs float arithmetic or prints makes the result
//     depend on Go's randomized map order.
//  2. No wall clock or global randomness reachable from SubsolveInto:
//     time.Now / time.Since / unseeded math/rand anywhere in the dynamic
//     extent of a subsolve changes results run to run. Reachability is
//     computed bottom-up over the call graph with object facts, so a
//     clock read introduced three packages deep is still caught at the
//     SubsolveInto root. Metrics-only clock reads are suppressed at the
//     call site with //vetsparse:ignore determinism <reason>, which also
//     keeps them out of the facts.
//  3. No split-dependent reductions: in a range kernel (a function whose
//     trailing two int parameters are a [lo, hi) range), accumulating
//     floats across the whole range in a function-level accumulator makes
//     the partial — and with it the fold order — depend on where the
//     range was cut. Kernels must fold fixed 1024-element chunks (linalg's
//     redChunk discipline) with chunk-local accumulators instead.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// scopedPkgs are the numeric packages rules 1 and 3 and the SubsolveInto
// diagnostic apply to (by package name, so fixtures can reproduce them);
// rule 2's reachability facts are computed for every package.
var scopedPkgs = map[string]bool{
	"linalg":     true,
	"grid":       true,
	"solver":     true,
	"rosenbrock": true,
}

// nondetFact marks a function from whose body a nondeterminism source
// (clock read, unseeded math/rand) is reachable.
type nondetFact struct {
	// Via is the human-readable call chain to the source.
	Via string
}

func (*nondetFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "determinism",
	Doc:       "flag nondeterminism hazards in the numeric stack: map-order-dependent float code, clock/rand reachable from SubsolveInto, split-dependent reductions",
	FactTypes: []analysis.Fact{(*nondetFact)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	reach := computeReachability(pass)
	if !scopedPkgs[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkMapRange(pass, fn)
				checkRangeAccumulator(pass, fn)
				if fn.Name.Name == "SubsolveInto" {
					if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
						if via, bad := reach[obj]; bad {
							pass.Reportf(fn.Name.Pos(), "nondeterminism source reachable from SubsolveInto via %s; identical inputs must produce identical floats", via)
						}
					}
				}
			}
		}
	}
	return nil, nil
}

// computeReachability finds the package's functions from which a clock
// read or unseeded math/rand call is reachable, imports the equivalent
// facts for callees in other packages, iterates the package-local call
// graph to a fixpoint, and exports facts for downstream packages. The
// returned map gives the via-chain per nondeterministic function.
func computeReachability(pass *analysis.Pass) map[*types.Func]string {
	type funcInfo struct {
		decl    *ast.FuncDecl
		via     string               // nonempty when nondeterminism is reachable
		callees map[*types.Func]bool // package-local static callees
	}
	infos := make(map[*types.Func]*funcInfo)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &funcInfo{decl: fn, callees: make(map[*types.Func]bool)}
			infos[obj] = info
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				if src := nondetSource(callee); src != "" {
					// A //vetsparse:ignore at the call site both drops the
					// diagnostic and keeps the call out of the facts, so a
					// justified metrics-only clock read does not poison
					// every caller up to SubsolveInto.
					if !pass.Ignores.Match(pass.Analyzer.Name, call.Pos()) && info.via == "" {
						info.via = src
					}
					return true
				}
				if callee.Pkg() == pass.Pkg {
					info.callees[callee] = true
				} else {
					var fact nondetFact
					if pass.ImportObjectFact(callee, &fact) && info.via == "" {
						info.via = callee.FullName() + " -> " + fact.Via
					}
				}
				return true
			})
		}
	}

	// Fixpoint over package-local edges (handles recursion and any
	// declaration order).
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			if info.via != "" {
				continue
			}
			for callee := range info.callees {
				if ci := infos[callee]; ci != nil && ci.via != "" {
					info.via = callee.FullName() + " -> " + ci.via
					changed = true
					break
				}
			}
		}
	}

	out := make(map[*types.Func]string)
	for obj, info := range infos {
		if info.via != "" {
			out[obj] = info.via
			pass.ExportObjectFact(obj, &nondetFact{Via: info.via})
		}
	}
	return out
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls (interface methods, function values) and conversions.
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

// seededRandFuncs are the math/rand package-level functions that do not
// consume the unseeded global source.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "Seed": true}

// nondetSource classifies a callee as a nondeterminism source, returning
// a description or "".
func nondetSource(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && !seededRandFuncs[fn.Name()] {
			return pkg.Path() + "." + fn.Name() + " (global source)"
		}
	}
	return ""
}

// checkMapRange flags `range` over a map whose body does float arithmetic
// or prints: Go randomizes map order, so such loops produce run-dependent
// floats or output.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if why := unorderedHazard(pass.TypesInfo, rng.Body); why != "" {
			pass.Reportf(rng.Pos(), "range over map feeds %s; map order is randomized, so the result depends on iteration order", why)
		}
		return true
	})
}

// unorderedHazard reports what order-sensitive work a loop body does:
// float arithmetic or output.
func unorderedHazard(info *types.Info, body *ast.BlockStmt) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				if isFloat(info.Types[n.X].Type) || isFloat(info.Types[n.Y].Type) {
					why = "float arithmetic"
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if isFloat(info.Types[lhs].Type) {
						why = "float arithmetic"
					}
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				why = "output (fmt)"
			}
		}
		return true
	})
	return why
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkRangeAccumulator flags float accumulation across a worker's whole
// [lo, hi) range. A kernel is recognized by its trailing two int
// parameters; an accumulator is a float variable declared directly in the
// function body that receives += / -= (or s = s + x) inside a loop over the
// range: a for whose header references both range parameters, or a range
// over a slice cut to them (x := v[lo:hi]; for i := range x — the
// bounds-check-free spelling of the phase interpreter's steps).
// Chunk-local accumulators — the redChunk discipline — live inside the
// loop and are untouched.
func checkRangeAccumulator(pass *analysis.Pass, fn *ast.FuncDecl) {
	lo, hi := rangeParams(pass.TypesInfo, fn)
	if lo == nil {
		return
	}
	acc := bodyLevelFloats(pass.TypesInfo, fn.Body)
	if len(acc) == 0 {
		return
	}
	views := rangeViews(pass.TypesInfo, fn.Body, lo, hi)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			if loopUsesBoth(pass.TypesInfo, loop, lo, hi) {
				body = loop.Body
			}
		case *ast.RangeStmt:
			id, _ := ast.Unparen(loop.X).(*ast.Ident)
			if slicesRange(pass.TypesInfo, loop.X, lo, hi) || (id != nil && views[pass.TypesInfo.Uses[id]]) {
				body = loop.Body
			}
		}
		if body == nil {
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !acc[pass.TypesInfo.Uses[id]] {
					continue
				}
				if accumulates(pass.TypesInfo, as, i, id) {
					pass.Reportf(as.Pos(), "float accumulation across the whole [%s, %s) worker range makes the reduction depend on where the range is cut; fold fixed 1024-element chunks into chunk-local partials instead", lo.Name(), hi.Name())
				}
			}
			return true
		})
		return true
	})
}

// rangeViews collects the variables assigned a slice of the worker range,
// x := v[lo:hi] or re-sliced forms of it such as v[lo:hi][:n].
func rangeViews(info *types.Info, body *ast.BlockStmt, lo, hi *types.Var) map[types.Object]bool {
	views := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || !slicesRange(info, rhs, lo, hi) {
				continue
			}
			if obj := info.ObjectOf(id); obj != nil {
				views[obj] = true
			}
		}
		return true
	})
	return views
}

// slicesRange reports whether e contains a slice expression cut from lo to
// hi.
func slicesRange(info *types.Info, e ast.Expr, lo, hi *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sl, ok := n.(*ast.SliceExpr); ok && mentions(info, sl.Low, lo) && mentions(info, sl.High, hi) {
			found = true
		}
		return !found
	})
	return found
}

// mentions reports whether node e (nil allowed) references v.
func mentions(info *types.Info, e ast.Node, v *types.Var) bool {
	found := false
	if e != nil {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
				found = true
			}
			return !found
		})
	}
	return found
}

// rangeParams returns the function's trailing two int parameters, or nils.
func rangeParams(info *types.Info, fn *ast.FuncDecl) (lo, hi *types.Var) {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil, nil
	}
	params := obj.Type().(*types.Signature).Params()
	n := params.Len()
	if n < 2 {
		return nil, nil
	}
	a, b := params.At(n-2), params.At(n-1)
	if isInt(a.Type()) && isInt(b.Type()) {
		return a, b
	}
	return nil, nil
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// bodyLevelFloats collects float variables declared by statements directly
// in the function body block (not nested in loops or ifs).
func bodyLevelFloats(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	addIdent := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil && isFloat(obj.Type()) {
			vars[obj] = true
		}
	}
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						addIdent(id)
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							addIdent(id)
						}
					}
				}
			}
		}
	}
	return vars
}

// loopUsesBoth reports whether the loop header (init and condition)
// references both range parameters.
func loopUsesBoth(info *types.Info, loop *ast.ForStmt, lo, hi *types.Var) bool {
	uses := func(v *types.Var) bool { return mentions(info, loop.Init, v) || mentions(info, loop.Cond, v) }
	return uses(lo) && uses(hi)
}

// accumulates reports whether the assignment grows the identified float:
// s += x, s -= x, or s = s + x / s = x + s.
func accumulates(info *types.Info, as *ast.AssignStmt, i int, id *ast.Ident) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return true
	case token.ASSIGN:
		if i >= len(as.Rhs) {
			return false
		}
		bin, ok := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return false
		}
		for _, operand := range []ast.Expr{bin.X, bin.Y} {
			if op, ok := ast.Unparen(operand).(*ast.Ident); ok && info.Uses[op] == info.Uses[id] {
				return true
			}
		}
	}
	return false
}
