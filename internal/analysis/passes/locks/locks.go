// Package locks implements the vetsparse pass tracking locksets over
// sync.Mutex / sync.RWMutex flow-sensitively (DESIGN.md §9): PRs 7-8 grew
// a real lock surface — the serve batcher's queue lock, the tenant table,
// the solver cache — and its discipline ("copy under the lock, block
// outside it") is exactly the kind of path property the AST-level passes
// cannot see.
//
// Four rules, computed on the analysis CFG with a paired may/must lockset
// state:
//
//  1. No lock leaked on a path: at every return, each lock that MAY still
//     be held (net of deferred unlocks) is reported. Paths that end in
//     panic are exempt — the goroutine unwinds.
//  2. No double acquire: taking a lock that MUST already be held
//     self-deadlocks (sync.Mutex does not recurse).
//  3. No blocking operation under a lock: a channel send/receive, a
//     select without default, a deadline read (readforms table), or a
//     WaitGroup.Wait while a lock is MUST-held stalls every other
//     goroutine contending for it — and deadlocks outright when the
//     unblocking party needs the same lock. sync.Cond.Wait is exempt: it
//     atomically releases its locker.
//  4. Consistent acquisition order: each function exports the lock
//     classes (Type.field) it may acquire, transitively, as an object
//     fact; acquiring B while holding A records the edge A→B, edges merge
//     across packages bottom-up, and any cycle in the merged graph —
//     e.g. batcher.mu vs solverCache.mu taken in both orders — is
//     reported as a deadlock candidate where the local edge closes it.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/readforms"
)

// lockFact summarizes a function for callers: the lock classes it (or
// anything it calls) may acquire, and the acquisition-order edges observed
// in its dynamic extent. Edges ride the facts so a cycle whose halves live
// in different packages is visible to the downstream package.
type lockFact struct {
	// Acquires lists lock classes ("pkg/path.Type.field") the function
	// may take, transitively.
	Acquires []string
	// Edges lists "held→acquired" order edges observed transitively.
	Edges []string
}

func (*lockFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "locks",
	Doc:       "flow-sensitive lockset analysis: leaked locks, double acquire, blocking under a lock, cross-package acquisition-order cycles",
	FactTypes: []analysis.Fact{(*lockFact)(nil)},
	Run:       run,
}

// lockset is the dual may/must state: may is "held on some path into
// here", must is "held on every path". Keys are normalized lock
// expressions ("d.mu", "s.admitMu", with "#R" appended for read locks).
type lockset struct {
	may  map[string]bool
	must map[string]bool
	// class maps a held key to its lock class for order edges ("" when
	// the lock has no package-level identity).
	class map[string]string
}

func newLockset() *lockset {
	return &lockset{may: map[string]bool{}, must: map[string]bool{}, class: map[string]string{}}
}

func (s *lockset) copy() *lockset {
	c := newLockset()
	for k := range s.may {
		c.may[k] = true
	}
	for k := range s.must {
		c.must[k] = true
	}
	for k, v := range s.class {
		c.class[k] = v
	}
	return c
}

// join merges src into dst: may-union, must-intersection.
func (s *lockset) join(src *lockset) bool {
	changed := false
	for k := range src.may {
		if !s.may[k] {
			s.may[k] = true
			changed = true
		}
	}
	for k := range s.must {
		if !src.must[k] {
			delete(s.must, k)
			changed = true
		}
	}
	for k, v := range src.class {
		if _, ok := s.class[k]; !ok {
			s.class[k] = v
		}
	}
	return changed
}

func (s *lockset) acquire(key, class string) {
	s.may[key] = true
	s.must[key] = true
	s.class[key] = class
}

func (s *lockset) release(key string) {
	delete(s.may, key)
	delete(s.must, key)
}

func (s *lockset) mustHeld() []string {
	keys := make([]string, 0, len(s.must))
	for k := range s.must {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// funcSummary is the per-function analysis product before facts export.
type funcSummary struct {
	acquires map[string]bool
	edges    map[string]token.Pos // edge "A→B" → the local Lock position that created it
	// calls holds, per package-local static call, the lock classes that
	// may be held there. A callee's acquire set is complete only once
	// propagate has closed it (the callee may be declared later, or call
	// such a function), so the held→acquired edges of the call are added
	// there, not when the call is analyzed.
	calls map[localCall]map[string]bool
}

// localCall is one call site of a package-local function.
type localCall struct {
	callee *types.Func
	pos    token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	a := &lockAnalysis{
		pass:      pass,
		summaries: map[*types.Func]*funcSummary{},
	}
	// Pass 1: per-function lockset analysis + local summaries. Function
	// literals are analyzed as functions in their own right (their lock
	// state is private to the goroutine or deferred frame running them),
	// attributed to the enclosing declaration's summary so order edges
	// survive the indirection.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			sum := &funcSummary{acquires: map[string]bool{}, edges: map[string]token.Pos{}, calls: map[localCall]map[string]bool{}}
			if obj != nil {
				a.summaries[obj] = sum
			}
			a.analyzeFunc(fn.Body, sum)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.analyzeFunc(lit.Body, sum)
				}
				return true
			})
		}
	}
	a.propagate()
	a.checkOrder()
	return nil, nil
}

type lockAnalysis struct {
	pass      *analysis.Pass
	summaries map[*types.Func]*funcSummary
	// comm marks the current function's select communication statements
	// (CFG.Comm): their send/receive is decided by the select dispatch and
	// never blocks by itself.
	comm map[ast.Stmt]bool
}

// analyzeFunc runs the dual-lockset flow problem over one function body
// and reports rules 1-3; acquisition edges and acquire classes accumulate
// into sum.
func (a *lockAnalysis) analyzeFunc(body *ast.BlockStmt, sum *funcSummary) {
	g := analysis.NewCFG(body, a.pass.TypesInfo)
	a.comm = g.Comm

	// Deferred unlocks apply at exit; deferred Lock is nonsense we leave
	// to rule 1 (the lock would leak anyway).
	deferred := map[string]bool{}
	for _, d := range g.Deferred {
		if op, key, _ := a.mutexOp(d.Call); op == opUnlock {
			deferred[key] = true
		}
	}

	spec := analysis.FlowSpec[*lockset]{
		Init: newLockset(),
		Copy: func(s *lockset) *lockset { return s.copy() },
		Join: func(dst, src *lockset) bool { return dst.join(src) },
		Transfer: func(n ast.Node, s *lockset) {
			a.transfer(n, s, sum, nil)
		},
	}
	in := analysis.Forward(g, spec)

	// Replay with reporting enabled: rules 2 and 3 at every node, rule 1
	// (locks held at a return, net of deferred unlocks) at return nodes.
	analysis.Walk(g, in, spec, func(n ast.Node, before *lockset) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, key := range sortedKeys(before.may) {
				if !deferred[key] {
					a.pass.Reportf(ret.Pos(), "lock %s may still be held at this return; every path must release it (or defer the unlock)", key)
				}
			}
		}
		a.transferCheck(n, before, sum)
	})
	// The fall-off-the-end exit: a function whose last block reaches Exit
	// without a return statement. Find states flowing into Exit from
	// non-return, non-panic blocks.
	for _, blk := range g.Blocks {
		if blk.Return || blk.Panics {
			continue
		}
		for _, succ := range blk.Succs {
			if succ != g.Exit {
				continue
			}
			entry, ok := in[blk]
			if !ok {
				continue
			}
			s := entry.copy()
			for _, n := range blk.Nodes {
				a.transfer(n, s, sum, nil)
			}
			for _, key := range sortedKeys(s.may) {
				if !deferred[key] {
					pos := body.Rbrace
					if len(blk.Nodes) > 0 {
						pos = blk.Nodes[len(blk.Nodes)-1].Pos()
					}
					a.pass.Reportf(pos, "lock %s may still be held when the function falls off the end; every path must release it (or defer the unlock)", key)
				}
			}
		}
	}
}

// transferCheck is transfer with rules 2 and 3 reported against the state
// immediately before the node.
func (a *lockAnalysis) transferCheck(n ast.Node, before *lockset, sum *funcSummary) {
	s := before.copy()
	a.transfer(n, s, sum, func(kind, detail string, pos token.Pos) {
		a.pass.Reportf(pos, "%s", detail)
	})
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// transfer applies one CFG node to the lockset. When report is non-nil,
// rules 2 and 3 fire through it; edges and acquires accumulate into sum
// either way (the fixed-point iteration and the replay both see them —
// the maps dedupe).
func (a *lockAnalysis) transfer(n ast.Node, s *lockset, sum *funcSummary, report func(kind, detail string, pos token.Pos)) {
	if sd, ok := n.(*analysis.SelectDispatch); ok {
		if !sd.HasDefault() && report != nil {
			a.reportBlocking(s, "select", sd.Pos(), report)
		}
		return
	}
	// A select comm statement's send/receive is non-blocking here: the
	// dispatch marker already modeled the blocking decision.
	isComm := false
	if stmt, ok := n.(ast.Stmt); ok {
		isComm = a.comm[stmt]
	}
	analysis.InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			// The deferred call runs at exit, not here; skip its call
			// expression (but not its argument expressions — they
			// evaluate now; close enough to skip entirely for mutex ops).
			return false
		case *ast.SendStmt:
			if report != nil && !isComm {
				a.reportBlocking(s, "channel send", m.Arrow, report)
			}
			return true
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && report != nil && !isComm {
				a.reportBlocking(s, "channel receive", m.OpPos, report)
			}
			return true
		case *ast.CallExpr:
			op, key, class := a.mutexOp(m)
			switch op {
			case opLock:
				// Read locks are shared: a second RLock is legal (though
				// an order hazard with writers, which rule 4 covers), so
				// the self-deadlock rule applies to exclusive locks only.
				if s.must[key] && report != nil && !strings.HasSuffix(key, "#R") {
					report("double", fmt.Sprintf("lock %s acquired while already held on every path here; sync mutexes do not recurse — this self-deadlocks", key), m.Pos())
				}
				// Order edges: every held lock with a class precedes
				// this one.
				if class != "" {
					for held, heldClass := range s.class {
						if s.may[held] && heldClass != "" && heldClass != class {
							edge := heldClass + "→" + class
							if _, ok := sum.edges[edge]; !ok {
								sum.edges[edge] = m.Pos()
							}
						}
					}
					sum.acquires[class] = true
				}
				s.acquire(key, class)
				return true
			case opUnlock:
				s.release(key)
				return true
			}
			if name, why := a.blockingCall(m); name != "" && report != nil {
				a.reportBlocking(s, why, m.Pos(), report)
			}
			// Callee summaries: acquisitions inside callees create order
			// edges under any held lock, and propagate into this
			// function's transitive acquire set — a package-local
			// callee's in propagate, from the classes recorded here.
			if callee := calleeFunc(a.pass.TypesInfo, m); callee != nil {
				if callee.Pkg() == a.pass.Pkg {
					site := localCall{callee, m.Pos()}
					held := sum.calls[site]
					if held == nil {
						held = map[string]bool{}
						sum.calls[site] = held
					}
					for key, class := range s.class {
						if s.may[key] && class != "" {
							held[class] = true
						}
					}
				} else {
					var fact lockFact
					if a.pass.ImportObjectFact(callee, &fact) {
						acq := map[string]bool{}
						for _, c := range fact.Acquires {
							acq[c] = true
						}
						a.mergeCalleeLocked(s, sum, acq, m.Pos())
						for _, e := range fact.Edges {
							if _, ok := sum.edges[e]; !ok {
								sum.edges[e] = token.NoPos
							}
						}
					}
				}
			}
			return true
		}
		return true
	})
}

// mergeCalleeLocked folds a callee's acquire classes into the caller:
// order edges from every currently-held classed lock, plus transitive
// acquires.
func (a *lockAnalysis) mergeCalleeLocked(s *lockset, sum *funcSummary, calleeAcquires map[string]bool, pos token.Pos) {
	for c := range calleeAcquires {
		sum.acquires[c] = true
		for held, heldClass := range s.class {
			if s.may[held] && heldClass != "" && heldClass != c {
				edge := heldClass + "→" + c
				if _, ok := sum.edges[edge]; !ok {
					sum.edges[edge] = pos
				}
			}
		}
	}
}

// reportBlocking fires rule 3 for every must-held lock, honoring the
// //vetsparse:ignore filter indirectly (the driver filters by position).
func (a *lockAnalysis) reportBlocking(s *lockset, what string, pos token.Pos, report func(kind, detail string, pos token.Pos)) {
	for _, key := range s.mustHeld() {
		report("blocking", fmt.Sprintf("%s while holding lock %s; a blocked holder stalls every contender — release the lock first", what, key), pos)
	}
}

// mutexOp classifies a call as Lock/Unlock on a sync.Mutex or
// sync.RWMutex (including embedded ones), returning the op, the
// normalized lock key, and the lock class ("pkg.Type.field", "" when the
// lock has no package-level identity).
func (a *lockAnalysis) mutexOp(call *ast.CallExpr) (mutexOpKind, string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, "", ""
	}
	var op mutexOpKind
	read := false
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op, read = opLock, true
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op, read = opUnlock, true
	default:
		return opNone, "", ""
	}
	fn, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, "", ""
	}
	key := types.ExprString(sel.X)
	if read {
		key += "#R"
	}
	return op, key, a.lockClass(sel.X)
}

// lockClass derives the package-level identity of a lock expression:
// "pkgpath.Type.field" for a mutex field of a named struct, "pkgpath.var"
// for a package-level mutex variable, "" otherwise.
func (a *lockAnalysis) lockClass(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		field, ok := a.pass.TypesInfo.Uses[x.Sel].(*types.Var)
		if !ok || !field.IsField() {
			return ""
		}
		// The owning named type comes from the selection's receiver.
		if selInfo, ok := a.pass.TypesInfo.Selections[x]; ok {
			t := selInfo.Recv()
			for {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
					continue
				}
				break
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
			}
		}
		return ""
	case *ast.Ident:
		obj := a.pass.TypesInfo.Uses[x]
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// blockingCall classifies a call as a blocking operation (rule 3):
// deadline-carrying and bare protocol reads, WaitGroup.Wait. sync.Cond.Wait
// is exempt — it releases its locker.
func (a *lockAnalysis) blockingCall(call *ast.CallExpr) (name, why string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	n := sel.Sel.Name
	fn, _ := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		// Package-level funcs: time.Sleep blocks.
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" && n == "Sleep" {
			return n, "time.Sleep"
		}
		return "", ""
	}
	recvT := sig.Recv().Type()
	if isSyncType(recvT, "Cond") {
		return "", "" // Cond.Wait releases the locker; Signal/Broadcast don't block
	}
	if isSyncType(recvT, "WaitGroup") && n == "Wait" {
		return n, "WaitGroup.Wait"
	}
	if readforms.Deadline[n] || readforms.Bare[n] {
		return n, "blocking read " + n
	}
	return "", ""
}

func isSyncType(t types.Type, name string) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == name
}

func namedOf(t types.Type) *types.Named {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, _ := t.(*types.Named)
	return named
}

// propagate closes the per-function summaries over package-local calls
// (so a helper's acquisitions count for its callers, and each call site
// gets an order edge from every class held there to every class the
// callee may acquire) and exports facts.
func (a *lockAnalysis) propagate() {
	for changed := true; changed; {
		changed = false
		for _, sum := range a.summaries {
			for site, held := range sum.calls {
				cs := a.summaries[site.callee]
				if cs == nil {
					continue
				}
				for c := range cs.acquires {
					if !sum.acquires[c] {
						sum.acquires[c] = true
						changed = true
					}
					for h := range held {
						if h == c {
							continue
						}
						// A new edge propagates; an edge already known
						// keeps the earliest call site, so the position
						// a cycle is reported at does not depend on map
						// order.
						edge := h + "→" + c
						if pos, ok := sum.edges[edge]; !ok {
							sum.edges[edge] = site.pos
							changed = true
						} else if pos == token.NoPos || site.pos < pos {
							sum.edges[edge] = site.pos
						}
					}
				}
				for e := range cs.edges {
					if _, ok := sum.edges[e]; !ok {
						sum.edges[e] = token.NoPos
						changed = true
					}
				}
			}
		}
	}
	for obj, sum := range a.summaries {
		if len(sum.acquires) == 0 && len(sum.edges) == 0 {
			continue
		}
		fact := &lockFact{}
		for c := range sum.acquires {
			fact.Acquires = append(fact.Acquires, c)
		}
		for e := range sum.edges {
			fact.Edges = append(fact.Edges, e)
		}
		sort.Strings(fact.Acquires)
		sort.Strings(fact.Edges)
		a.pass.ExportObjectFact(obj, fact)
	}
}

// checkOrder merges every known acquisition-order edge — local ones plus
// edges imported through callee facts (already folded into summaries) —
// and reports each cycle that a locally-observed edge closes, at that
// edge's Lock site. Reporting only locally-closed cycles keeps a cycle
// from being re-reported by every downstream package.
func (a *lockAnalysis) checkOrder() {
	edges := map[string]token.Pos{}
	for _, sum := range a.summaries {
		for e, pos := range sum.edges {
			// Keep the earliest local position per edge (map iteration
			// over summaries is unordered; diagnostics must not be).
			if cur, ok := edges[e]; !ok || cur == token.NoPos || (pos != token.NoPos && pos < cur) {
				edges[e] = pos
			}
		}
	}
	adj := map[string][]string{}
	for e := range edges {
		from, to, ok := strings.Cut(e, "→")
		if !ok {
			continue
		}
		adj[from] = append(adj[from], to)
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	sortedEdges := make([]string, 0, len(edges))
	for e := range edges {
		sortedEdges = append(sortedEdges, e)
	}
	sort.Strings(sortedEdges)
	reported := map[string]bool{}
	for _, e := range sortedEdges {
		pos := edges[e]
		if pos == token.NoPos {
			continue // imported edge; the defining package reports
		}
		from, to, _ := strings.Cut(e, "→")
		if path := findPath(adj, to, from); path != nil {
			// path runs to → ... → from; prepend from and drop the
			// duplicate tail so the cycle lists each node once (the
			// canonical key depends on it).
			cycle := append([]string{from}, path[:len(path)-1]...)
			key := canonicalCycle(cycle)
			if reported[key] {
				continue
			}
			reported[key] = true
			a.pass.Reportf(pos, "lock acquisition order cycle: %s → %s; two goroutines taking these locks in opposite orders deadlock", strings.Join(cycle, " → "), cycle[0])
		}
	}
}

// findPath returns a path from src to dst in adj (nil if none), depth-
// first in sorted order so diagnostics are deterministic.
func findPath(adj map[string][]string, src, dst string) []string {
	seen := map[string]bool{}
	var dfs func(n string) []string
	dfs = func(n string) []string {
		if n == dst {
			return []string{n}
		}
		if seen[n] {
			return nil
		}
		seen[n] = true
		for _, next := range adj[n] {
			if p := dfs(next); p != nil {
				return append([]string{n}, p...)
			}
		}
		return nil
	}
	return dfs(src)
}

// canonicalCycle rotates the cycle node list to start at the smallest
// element so the same cycle found from different edges dedupes.
func canonicalCycle(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	min := 0
	for i, n := range nodes {
		if n < nodes[min] {
			min = i
		}
	}
	rot := append(append([]string{}, nodes[min:]...), nodes[:min]...)
	return strings.Join(rot, "|")
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
