package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file gives the flow-sensitive locks pass a per-function
// control-flow graph over the AST. The other passes are syntax-directed —
// they inspect one construct at a time — but a lock held across paths is
// a property of *paths*, so the lockset invariants need blocks and edges:
// if/else splits, loop back edges, select and switch fans, defer-at-exit,
// goto resolution.
//
// The graph is deliberately AST-level, not SSA: every statement (and the
// condition expressions that guard branches) lands in exactly one Block in
// execution order, so a transfer function can re-inspect the original
// syntax — which is where //vetsparse:ignore directives, method names, and
// selector paths live. Function literals are boundaries: a FuncLit body is
// NEVER inlined into the enclosing graph (it runs at some other time, on
// some other goroutine); clients build a separate CFG per literal.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the first block executed.
	Entry *Block
	// Exit is the virtual join of every normal return path. Deferred
	// calls conceptually run on the Entry→...→Exit edge into it.
	Exit *Block
	// Blocks lists every block, Entry first, Exit last.
	Blocks []*Block
	// Deferred are the defer statements of the function in source order.
	// They run at every exit — normal or panicking — so clients treat
	// their effect (an Unlock, a Done) as applying to Exit.
	Deferred []*ast.DeferStmt
	// Comm marks select communication statements (the `case ch <- v:` /
	// `case v := <-ch:` operations). Their send or receive does not block
	// by itself — the SelectDispatch marker models the blocking decision —
	// so clients must not classify them as blocking operations.
	Comm map[ast.Stmt]bool
}

// SelectDispatch is the marker node a select statement leaves in its
// predecessor block: the moment control blocks (or polls, with a default)
// until one communication is ready. Clients classify it without descending
// into the clause bodies — those live in their own successor blocks.
type SelectDispatch struct {
	// Stmt is the select statement being dispatched.
	Stmt *ast.SelectStmt
}

// Pos implements ast.Node.
func (s *SelectDispatch) Pos() token.Pos { return s.Stmt.Pos() }

// End implements ast.Node. It covers only the keyword, not the clauses.
func (s *SelectDispatch) End() token.Pos { return s.Stmt.Select + token.Pos(len("select")) }

// HasDefault reports whether the select has a default clause (and so never
// blocks).
func (s *SelectDispatch) HasDefault() bool {
	for _, c := range s.Stmt.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// Block is a straight-line run of AST nodes with no internal control
// transfer. Nodes holds statements and guard expressions in execution
// order; Succs are the possible next blocks.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes are the statements/expressions executed in order. Nested
	// FuncLit bodies are opaque: their statements are not here.
	Nodes []ast.Node
	// Succs are the control-flow successors.
	Succs []*Block
	// Return is set when the block ends in a return statement (its edge
	// goes to Exit).
	Return bool
	// Panics is set when the block ends in a call to panic (no
	// successors: the goroutine unwinds, so normal-exit checks skip it).
	Panics bool
}

// builder carries the state of one CFG construction.
type builder struct {
	cfg     *CFG
	current *Block
	// breakTo / continueTo map the innermost enclosing loop/switch/select
	// targets; label entries ("label") address labeled statements.
	breakTo    map[string]*Block
	continueTo map[string]*Block
	// labels maps label name → block starting the labeled statement, for
	// goto resolution; gotos seen before their label are patched after.
	labels       map[string]*Block
	pendingGotos map[string][]*Block
	// pendingLabel threads a label from LabeledStmt to the loop/switch
	// translator so `break label` / `continue label` resolve.
	pendingLabel string
	info         *types.Info
}

// NewCFG builds the control-flow graph of body. info may be nil; when
// present it sharpens panic detection (a call to the predeclared panic).
func NewCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	cfg := &CFG{}
	b := &builder{
		cfg:          cfg,
		breakTo:      make(map[string]*Block),
		continueTo:   make(map[string]*Block),
		labels:       make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
		info:         info,
	}
	cfg.Entry = b.newBlock()
	cfg.Exit = &Block{}
	b.current = cfg.Entry
	b.stmtList(body.List)
	b.jump(cfg.Exit)
	// Unresolved gotos (labels in dead code) fall through to exit so the
	// graph stays connected.
	for _, blocks := range b.pendingGotos {
		for _, blk := range blocks {
			blk.Succs = append(blk.Succs, cfg.Exit)
		}
	}
	cfg.Exit.Index = len(cfg.Blocks)
	cfg.Blocks = append(cfg.Blocks, cfg.Exit)
	return cfg
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump ends the current block with an edge to dst and leaves no current
// block; callers start a fresh one for any following (possibly dead) code.
func (b *builder) jump(dst *Block) {
	if b.current != nil {
		b.current.Succs = append(b.current.Succs, dst)
	}
	b.current = nil
}

// ensure returns the current block, starting an (unreachable) fresh one
// after a terminating statement so later code still lands somewhere.
func (b *builder) ensure() *Block {
	if b.current == nil {
		b.current = b.newBlock()
	}
	return b.current
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.ensure().Nodes = append(b.ensure().Nodes, n)
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement into blocks and edges.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.ensure()
		b.current = nil
		then := b.newBlock()
		cond.Succs = append(cond.Succs, then)
		b.current = then
		b.stmt(s.Body)
		thenEnd := b.current
		var elseEnd *Block
		hasElse := s.Else != nil
		if hasElse {
			els := b.newBlock()
			cond.Succs = append(cond.Succs, els)
			b.current = els
			b.stmt(s.Else)
			elseEnd = b.current
		}
		join := b.newBlock()
		if !hasElse {
			cond.Succs = append(cond.Succs, join)
		}
		if thenEnd != nil {
			thenEnd.Succs = append(thenEnd.Succs, join)
		}
		if elseEnd != nil {
			elseEnd.Succs = append(elseEnd.Succs, join)
		}
		b.current = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.jump(head)
		b.current = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		post := b.newBlock()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		post.Succs = append(post.Succs, head)
		exit := b.newBlock()
		if s.Cond != nil {
			head.Succs = append(head.Succs, exit)
		}
		body := b.newBlock()
		head.Succs = append(head.Succs, body)
		b.withLoop(s, exit, post, func() {
			b.current = body
			b.stmt(s.Body)
			b.jump(post)
		})
		b.current = exit

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.newBlock()
		b.jump(head)
		exit := b.newBlock()
		head.Succs = append(head.Succs, exit)
		body := b.newBlock()
		head.Succs = append(head.Succs, body)
		b.withLoop(s, exit, head, func() {
			b.current = body
			b.stmt(s.Body)
			b.jump(head)
		})
		b.current = exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)

	case *ast.SelectStmt:
		// The dispatch marker lands in the predecessor block — that is
		// what clients classify as blocking (no default) or not. A
		// select{} gets the marker and no successors: it blocks forever.
		b.add(&SelectDispatch{Stmt: s})
		pred := b.ensure()
		b.current = nil
		join := b.newBlock()
		b.withBreakable(s, join, func() {
			for _, c := range s.Body.List {
				comm := c.(*ast.CommClause)
				blk := b.newBlock()
				pred.Succs = append(pred.Succs, blk)
				b.current = blk
				if comm.Comm != nil {
					if b.cfg.Comm == nil {
						b.cfg.Comm = make(map[ast.Stmt]bool)
					}
					b.cfg.Comm[comm.Comm] = true
					b.add(comm.Comm)
				}
				b.stmtList(comm.Body)
				b.jump(join)
			}
		})
		b.current = join

	case *ast.ReturnStmt:
		b.add(s)
		blk := b.ensure()
		blk.Return = true
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		head := b.newBlock()
		b.jump(head)
		b.current = head
		b.labels[s.Label.Name] = head
		for _, blk := range b.pendingGotos[s.Label.Name] {
			blk.Succs = append(blk.Succs, head)
		}
		delete(b.pendingGotos, s.Label.Name)
		// break/continue with this label resolve to the labeled loop's
		// targets; register after the loop sets them up via withLoop.
		b.labeledStmt(s)

	case *ast.DeferStmt:
		b.cfg.Deferred = append(b.cfg.Deferred, s)
		b.add(s)

	case *ast.GoStmt:
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if b.isPanic(s.X) {
			blk := b.ensure()
			blk.Panics = true
			b.current = nil
		}

	default:
		// Assign, Decl, Send, IncDec, Empty, ...: straight-line.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// labeledStmt handles the statement under a label: loops register their
// break/continue targets under the label name.
func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.pendingLabel = name
		b.stmt(inner)
		b.pendingLabel = ""
	default:
		b.stmt(s.Stmt)
	}
}

// withLoop runs body with the loop's break/continue targets registered
// (both anonymous — the innermost — and, when labeled, by name).
func (b *builder) withLoop(s ast.Stmt, brk, cont *Block, body func()) {
	label := b.pendingLabel
	b.pendingLabel = ""
	prevB, prevC := b.breakTo[""], b.continueTo[""]
	b.breakTo[""], b.continueTo[""] = brk, cont
	if label != "" {
		b.breakTo[label], b.continueTo[label] = brk, cont
	}
	body()
	b.breakTo[""], b.continueTo[""] = prevB, prevC
	if label != "" {
		delete(b.breakTo, label)
		delete(b.continueTo, label)
	}
}

// withBreakable is withLoop for switch/select: break works, continue
// passes through to the enclosing loop.
func (b *builder) withBreakable(s ast.Stmt, brk *Block, body func()) {
	label := b.pendingLabel
	b.pendingLabel = ""
	prev := b.breakTo[""]
	b.breakTo[""] = brk
	if label != "" {
		b.breakTo[label] = brk
	}
	body()
	b.breakTo[""] = prev
	if label != "" {
		delete(b.breakTo, label)
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if dst, ok := b.breakTo[name]; ok {
			b.jump(dst)
		} else {
			b.jump(b.cfg.Exit)
		}
	case token.CONTINUE:
		if dst, ok := b.continueTo[name]; ok {
			b.jump(dst)
		} else {
			b.jump(b.cfg.Exit)
		}
	case token.GOTO:
		if dst, ok := b.labels[name]; ok {
			b.jump(dst)
		} else {
			blk := b.ensure()
			b.pendingGotos[name] = append(b.pendingGotos[name], blk)
			b.current = nil
		}
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt (edge to next clause).
	}
}

// switchStmt translates switch and type-switch: tag in the predecessor,
// one block per clause, fallthrough edges clause→clause, missing default
// adds a direct edge to the join.
func (b *builder) switchStmt(s ast.Stmt) {
	var init ast.Stmt
	var tag ast.Node
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, tag, clauses = s.Init, s.Tag, s.Body.List
	case *ast.TypeSwitchStmt:
		init, tag, clauses = s.Init, s.Assign, s.Body.List
	}
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	pred := b.ensure()
	b.current = nil
	join := b.newBlock()
	hasDefault := false
	var blocks []*Block
	var bodies [][]ast.Stmt
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		pred.Succs = append(pred.Succs, blk)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		blocks = append(blocks, blk)
		bodies = append(bodies, cc.Body)
	}
	b.withBreakable(s, join, func() {
		for i := range blocks {
			b.current = blocks[i]
			// A trailing fallthrough jumps to the next clause body.
			fall := false
			body := bodies[i]
			if n := len(body); n > 0 {
				if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					fall = true
					body = body[:n-1]
				}
			}
			b.stmtList(body)
			if fall && i+1 < len(blocks) {
				b.jump(blocks[i+1])
			} else {
				b.jump(join)
			}
		}
	})
	if !hasDefault {
		pred.Succs = append(pred.Succs, join)
	}
	b.current = join
}

// isPanic reports whether e is a call to the predeclared panic.
func (b *builder) isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info == nil {
		return true
	}
	_, isBuiltin := b.info.Uses[id].(*types.Builtin)
	return isBuiltin
}
