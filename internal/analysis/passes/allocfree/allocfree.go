// Package allocfree implements the vetsparse pass guarding the repo's
// zero-allocation hot paths (DESIGN.md §8, the PR-2 Rosenbrock loop and
// the fused phase kernels): a function annotated
//
//	//vetsparse:allocfree
//
// in its doc comment asserts its body contains no allocation-causing
// construct, and this pass rejects the annotation when it finds one:
// append, closure-creating function literals, interface boxing, fmt
// calls, non-constant string concatenation, map/slice composite literals,
// make, new, or taking the address of a composite literal.
//
// Two cold-path exemptions keep failure handling out of the hot-loop
// ledger: constructs inside a panic(...) argument, and constructs inside a
// return statement of a function that returns an error, are not flagged —
// both execute at most once per failure, never per iteration. The check
// is intra-procedural: a callee's allocations are its own annotation's
// business, so annotate the whole call chain of a hot loop.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "reject //vetsparse:allocfree functions containing allocation-causing constructs",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, fn := range analysis.AllocFreeFuncs(pass.Files) {
		if fn.Body == nil {
			continue
		}
		c := &checker{pass: pass, returnsError: funcReturnsError(pass.TypesInfo, fn)}
		c.walk(fn.Body, false)
	}
	return nil, nil
}

type checker struct {
	pass         *analysis.Pass
	returnsError bool
}

func (c *checker) report(pos token.Pos, cold bool, format string, args ...any) {
	if !cold {
		c.pass.Reportf(pos, "allocfree function: "+format, args...)
	}
}

// walk flags allocation-causing constructs under n. cold marks the
// exempted failure paths (panic arguments, error returns).
func (c *checker) walk(n ast.Node, cold bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ReturnStmt:
			if !cold && c.returnsError {
				for _, res := range m.Results {
					c.walk(res, true)
				}
				return false
			}
		case *ast.CallExpr:
			if !cold && isBuiltin(c.pass.TypesInfo, m.Fun, "panic") {
				for _, arg := range m.Args {
					c.walk(arg, true)
				}
				return false
			}
			c.checkCall(m, cold)
		case *ast.FuncLit:
			c.report(m.Pos(), cold, "function literal allocates a closure")
			return false // the literal's body belongs to the closure
		case *ast.CompositeLit:
			c.checkCompositeLit(m, cold)
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(m.X).(*ast.CompositeLit); ok && m.Op == token.AND {
				c.report(m.Pos(), cold, "&composite literal escapes to the heap")
			}
		case *ast.BinaryExpr:
			if m.Op == token.ADD && isString(c.pass.TypesInfo.Types[m].Type) && c.pass.TypesInfo.Types[m].Value == nil {
				c.report(m.Pos(), cold, "non-constant string concatenation allocates")
			}
		case *ast.AssignStmt:
			for i, rhs := range m.Rhs {
				if i < len(m.Lhs) {
					c.checkBoxing(m.Lhs[i], rhs, cold)
				}
			}
		}
		return true
	})
}

// checkCall flags allocating builtins, fmt, and interface boxing at call
// argument positions.
func (c *checker) checkCall(call *ast.CallExpr, cold bool) {
	info := c.pass.TypesInfo
	switch {
	case isBuiltin(info, call.Fun, "append"):
		c.report(call.Pos(), cold, "append may grow the backing array")
		return
	case isBuiltin(info, call.Fun, "make"):
		c.report(call.Pos(), cold, "make allocates")
		return
	case isBuiltin(info, call.Fun, "new"):
		c.report(call.Pos(), cold, "new allocates")
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x): allocates only when T is an interface.
		if isInterface(tv.Type) && len(call.Args) == 1 && boxes(info, tv.Type, call.Args[0]) {
			c.report(call.Pos(), cold, "conversion to interface boxes %s", info.Types[call.Args[0]].Type)
		}
		return
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		c.report(call.Pos(), cold, "fmt.%s allocates", fn.Name())
		return
	}
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		param := paramAt(sig, i, call.Ellipsis.IsValid())
		if param != nil && boxes(info, param, arg) {
			c.report(arg.Pos(), cold, "passing %s as interface %s boxes", info.Types[arg].Type, param)
		}
	}
}

func (c *checker) checkCompositeLit(lit *ast.CompositeLit, cold bool) {
	t := c.pass.TypesInfo.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.report(lit.Pos(), cold, "map literal allocates")
	case *types.Slice:
		c.report(lit.Pos(), cold, "slice literal allocates")
	}
}

// checkBoxing flags an assignment that stores a non-pointer-shaped
// concrete value into an interface-typed location.
func (c *checker) checkBoxing(lhs, rhs ast.Expr, cold bool) {
	t := typeOf(c.pass.TypesInfo, lhs)
	if t != nil && isInterface(t) && boxes(c.pass.TypesInfo, t, rhs) {
		c.report(rhs.Pos(), cold, "assigning %s to interface %s boxes", c.pass.TypesInfo.Types[rhs].Type, t)
	}
}

// boxes reports whether storing arg into an interface of type dst
// allocates: the arg has a concrete type that is not pointer-shaped
// (pointers, channels, maps, funcs and unsafe pointers fit the interface
// data word without allocating).
func boxes(info *types.Info, dst types.Type, arg ast.Expr) bool {
	if !isInterface(dst) {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if isInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

// paramAt returns the parameter type at argument index i, unrolling
// variadic parameters; nil when unknown. A `f(xs...)` spread passes the
// slice itself, which does not box per element.
func paramAt(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if ellipsis {
			return sig.Params().At(n - 1).Type()
		}
		if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

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

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// funcReturnsError reports whether the function has an error result,
// enabling the error-return cold-path exemption.
func funcReturnsError(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	results := obj.Type().(*types.Signature).Results()
	for i := 0; i < results.Len(); i++ {
		if named, ok := results.At(i).Type().(*types.Named); ok {
			if named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				return true
			}
		}
	}
	return false
}
