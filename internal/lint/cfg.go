package lint

import (
	"go/ast"
	"go/token"
)

// This file is the intra-procedural control-flow layer journalorder runs its
// must-reach pass on: a basic-block CFG over one function body. It
// deliberately stays on go/ast — no SSA, no x/tools — because nothing may be
// installed into the build image and the analysis only needs
// statement-level precision.
//
// Partition contract: every ast.Stmt of the body (excluding statements
// inside nested *ast.FuncLit bodies, which are their own functions with
// their own CFGs, and excluding the clause-container *ast.BlockStmt of
// switch/type-switch/select, which is pure brace syntax) is appended to
// exactly one block. Compound statements
// live in the block that begins evaluating them (their header), while
// their children are distributed into the blocks control actually reaches:
// an *ast.IfStmt sits in the block evaluating its condition, its Init
// statement precedes it there, and the then/else bodies occupy successor
// blocks. A statement-level transfer function must therefore only interpret
// the parts of a compound statement its own block evaluates — see OwnedExprs.

// Block is one basic block: a maximal straight-line statement sequence.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Stmts are the statements evaluated in this block, in order.
	Stmts []ast.Stmt
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block; Blocks[0] is the entry.
	Blocks []*Block
	// Entry is the block function execution starts in.
	Entry *Block
	// Exit is the synthetic (statement-less) block every return, panic and
	// the final fallthrough edge to.
	Exit *Block
}

// cfgBuilder carries the state of one build: the block under construction,
// the stack of enclosing breakable/continuable constructs, and the goto
// label table.
type cfgBuilder struct {
	g      *CFG
	cur    *Block // nil while control cannot reach the next statement
	frames []cfgFrame
	labels map[string]*Block
	// fallthroughTo is the next case-clause block while building a switch
	// case body (the target of a fallthrough statement).
	fallthroughTo *Block
}

// cfgFrame is one enclosing construct a break/continue can target.
type cfgFrame struct {
	label string
	brk   *Block // break target (loops, switch, select)
	cont  *Block // continue target (loops only)
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g, labels: make(map[string]*Block)}
	g.Entry = b.newBlock()
	g.Exit = &Block{} // indexed last, after every real block
	b.cur = g.Entry
	for _, s := range body.List {
		b.stmt(s, "")
	}
	if b.cur != nil {
		b.edge(b.cur, g.Exit)
	}
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// reach makes sure statements have a block to land in: after a terminator
// (return, break, goto) the next statement starts a fresh, edge-less block
// so dead code still satisfies the partition contract.
func (b *cfgBuilder) reach() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

// labelBlock returns (creating on demand) the block a label names, so a
// forward goto can target a label not yet visited.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// stmt appends one statement to the graph. label is the name of the
// immediately enclosing LabeledStmt ("" otherwise), handed to loops and
// switches so labelled break/continue resolve.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		b.reach().Stmts = append(b.cur.Stmts, v)
		for _, inner := range v.List {
			b.stmt(inner, "")
		}

	case *ast.LabeledStmt:
		lb := b.labelBlock(v.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, lb)
		}
		b.cur = lb
		b.cur.Stmts = append(b.cur.Stmts, v)
		b.stmt(v.Stmt, v.Label.Name)

	case *ast.ReturnStmt:
		b.reach().Stmts = append(b.cur.Stmts, v)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.reach().Stmts = append(b.cur.Stmts, v)
		b.branch(v)

	case *ast.IfStmt:
		if v.Init != nil {
			b.stmt(v.Init, "")
		}
		header := b.reach()
		header.Stmts = append(header.Stmts, v)
		then := b.newBlock()
		b.edge(header, then)
		join := b.newBlock()
		b.cur = then
		b.stmt(v.Body, "")
		if b.cur != nil {
			b.edge(b.cur, join)
		}
		if v.Else != nil {
			els := b.newBlock()
			b.edge(header, els)
			b.cur = els
			b.stmt(v.Else, "")
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		} else {
			b.edge(header, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if v.Init != nil {
			b.stmt(v.Init, "")
		}
		header := b.reach()
		header.Stmts = append(header.Stmts, v)
		cond := b.newBlock()
		b.edge(header, cond)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(cond, body)
		if v.Cond != nil {
			b.edge(cond, after)
		}
		cont := cond
		var post *Block
		if v.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.frames = append(b.frames, cfgFrame{label: label, brk: after, cont: cont})
		b.cur = body
		b.stmt(v.Body, "")
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		if post != nil {
			b.cur = post
			b.stmt(v.Post, "")
			if b.cur != nil {
				b.edge(b.cur, cond)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.RangeStmt:
		header := b.reach()
		header.Stmts = append(header.Stmts, v)
		head := b.newBlock() // the per-element "more?" check
		b.edge(header, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.frames = append(b.frames, cfgFrame{label: label, brk: after, cont: head})
		b.cur = body
		b.stmt(v.Body, "")
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if v.Init != nil {
			b.stmt(v.Init, "")
		}
		b.caseDispatch(v, v.Body, label, true)

	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			b.stmt(v.Init, "")
		}
		if v.Assign != nil {
			b.stmt(v.Assign, "")
		}
		b.caseDispatch(v, v.Body, label, false)

	case *ast.SelectStmt:
		header := b.reach()
		header.Stmts = append(header.Stmts, v)
		after := b.newBlock()
		b.frames = append(b.frames, cfgFrame{label: label, brk: after})
		for _, clause := range v.Body.List {
			cc := clause.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(header, cb)
			b.cur = cb
			b.cur.Stmts = append(b.cur.Stmts, cc)
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			for _, inner := range cc.Body {
				b.stmt(inner, "")
			}
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		// select{} (or every case terminating) never falls through: after
		// simply keeps zero predecessors, and any trailing statements land
		// in it as dead code, preserving the partition contract.
		b.cur = after

	case *ast.ExprStmt:
		b.reach().Stmts = append(b.cur.Stmts, v)
		if isPanicCall(v.X) {
			b.edge(b.cur, b.g.Exit)
			b.cur = nil
		}

	default:
		// Assignments, declarations, sends, inc/dec, go, defer, empty:
		// straight-line statements.
		b.reach().Stmts = append(b.cur.Stmts, s)
	}
}

// caseDispatch builds the clause fan-out shared by switch and type switch.
// The header has an edge to every clause and — when no default exists — to
// the after block. fallthrough edges to the next clause's block.
func (b *cfgBuilder) caseDispatch(sw ast.Stmt, body *ast.BlockStmt, label string, allowFallthrough bool) {
	header := b.reach()
	header.Stmts = append(header.Stmts, sw)
	after := b.newBlock()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	blocks := make([]*Block, 0, len(body.List))
	hasDefault := false
	for _, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		clauses = append(clauses, cc)
		cb := b.newBlock()
		blocks = append(blocks, cb)
		b.edge(header, cb)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(header, after)
	}
	b.frames = append(b.frames, cfgFrame{label: label, brk: after})
	for i, cc := range clauses {
		b.cur = blocks[i]
		b.cur.Stmts = append(b.cur.Stmts, cc)
		savedFT := b.fallthroughTo
		if allowFallthrough && i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		for _, inner := range cc.Body {
			b.stmt(inner, "")
		}
		b.fallthroughTo = savedFT
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// branch resolves break/continue/goto/fallthrough to its target edge.
func (b *cfgBuilder) branch(v *ast.BranchStmt) {
	name := ""
	if v.Label != nil {
		name = v.Label.Name
	}
	switch v.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.brk == nil {
				continue
			}
			if name != "" && f.label != name {
				continue
			}
			b.edge(b.cur, f.brk)
			b.cur = nil
			return
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont == nil {
				continue
			}
			if name != "" && f.label != name {
				continue
			}
			b.edge(b.cur, f.cont)
			b.cur = nil
			return
		}
	case token.GOTO:
		if name != "" {
			b.edge(b.cur, b.labelBlock(name))
		}
		b.cur = nil
		return
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.edge(b.cur, b.fallthroughTo)
		}
		b.cur = nil
		return
	}
	// A break/continue with no matching frame (malformed source the parser
	// tolerated): treat as a terminator so analysis stays conservative.
	b.cur = nil
}

// isPanicCall reports whether the expression is a bare panic(...) call.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// OwnedExprs returns the expression parts of a statement that are evaluated
// in the block the statement itself was placed in. For simple statements
// that is the whole statement; for compound statements only the header
// expression — an *ast.IfStmt's block evaluates the condition, not the
// branch bodies, which live in successor blocks (and whose Init statements
// were appended to the header block as statements of their own). Transfer
// functions must interpret exactly these parts and nothing deeper, or a
// call inside an unexecuted branch would leak into the header's facts.
func OwnedExprs(s ast.Stmt) []ast.Node {
	switch v := s.(type) {
	case *ast.IfStmt:
		if v.Cond != nil {
			return []ast.Node{v.Cond}
		}
		return nil
	case *ast.ForStmt:
		// The condition is evaluated in its own loop-head block that carries
		// no statement; attributing it to the header would be wrong more
		// often than helpful, so for-conditions are not owned by anything.
		return nil
	case *ast.RangeStmt:
		if v.X != nil {
			return []ast.Node{v.X}
		}
		return nil
	case *ast.SwitchStmt:
		if v.Tag != nil {
			return []ast.Node{v.Tag}
		}
		return nil
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		return nil
	case *ast.CaseClause:
		out := make([]ast.Node, 0, len(v.List))
		for _, e := range v.List {
			out = append(out, e)
		}
		return out
	case *ast.CommClause:
		return nil // the comm statement was appended separately
	case *ast.LabeledStmt, *ast.BlockStmt:
		return nil // pure structure; children are placed individually
	default:
		return []ast.Node{s}
	}
}
